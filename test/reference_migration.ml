(* The historical sorted-scan Migration round, retained verbatim (minus
   metrics) as the oracle for the screened walk's equivalence property:
   same origin, victim and target in every round, same stats. [run]
   takes the move as a parameter so a test can observe each round;
   [rebalance] is the old live-mapping copy with its own round. Do not
   "improve" this file — its value is that it is the old code. *)

module Graph = Hmn_graph.Graph
module Cluster = Hmn_testbed.Cluster
module Virtual_env = Hmn_vnet.Virtual_env
module Placement = Hmn_mapping.Placement
module Problem = Hmn_mapping.Problem
module Mapping = Hmn_mapping.Mapping
module Objective = Hmn_mapping.Objective
module Migration = Hmn_core.Migration
module Incremental = Hmn_core.Incremental

let improvement_eps = 1e-9

let most_loaded_host_with_guests placement hosts =
  let best = ref None in
  Array.iter
    (fun h ->
      if Placement.n_guests_on placement ~host:h > 0 then begin
        let cpu = Placement.residual_cpu placement ~host:h in
        match !best with
        | Some (_, best_cpu) when best_cpu <= cpu -> ()
        | _ -> best := Some (h, cpu)
      end)
    hosts;
  Option.map fst !best

let pick_victim placement ~host =
  match Placement.guests_on placement ~host with
  | [] -> None
  | guests ->
    Some
      (Hmn_prelude.List_ext.min_by
         (fun g -> Migration.colocated_bandwidth placement ~guest:g)
         guests)

let run ?max_moves ~move placement =
  let problem = Placement.problem placement in
  let cluster = problem.Problem.cluster in
  let hosts = Cluster.host_ids cluster in
  let n_guests = Virtual_env.n_guests problem.Problem.venv in
  let max_moves = Option.value max_moves ~default:(16 * n_guests) in
  let lbf_before = Objective.load_balance_factor placement in
  let moves = ref 0 in
  let try_round () =
    let current = Objective.load_balance_factor placement in
    match most_loaded_host_with_guests placement hosts with
    | None -> false
    | Some origin -> (
      match pick_victim placement ~host:origin with
      | None -> false
      | Some guest ->
        (* Targets from least loaded (largest residual CPU) upward. *)
        let targets =
          Array.of_list
            (List.filter (fun h -> h <> origin) (Array.to_list hosts))
        in
        Hmn_prelude.Array_ext.sort_by_desc
          (fun h -> Placement.residual_cpu placement ~host:h)
          targets;
        let moved = ref false and i = ref 0 in
        while (not !moved) && !i < Array.length targets do
          let target = targets.(!i) in
          incr i;
          match Objective.load_balance_after_migration placement ~guest ~host:target with
          | Some lbf' when lbf' < current -. improvement_eps -> (
            match move ~guest ~host:target with
            | Ok () ->
              moved := true;
              incr moves
            | Error _ -> ())
          | Some _ | None -> ()
        done;
        !moved)
  in
  let rec loop () = if !moves < max_moves && try_round () then loop () in
  loop ();
  {
    Migration.moves = !moves;
    lbf_before;
    lbf_after = Objective.load_balance_factor placement;
  }

let rebalance ?max_moves t =
  let placement = (Incremental.mapping t).Mapping.placement in
  let problem = Mapping.problem (Incremental.mapping t) in
  let cluster = problem.Problem.cluster in
  let hosts = Cluster.host_ids cluster in
  let n_guests = Virtual_env.n_guests problem.Problem.venv in
  let max_moves = Option.value max_moves ~default:(4 * n_guests) in
  let moves = ref 0 in
  let try_round () =
    let current = Objective.load_balance_factor placement in
    (* Most loaded host that still has guests. *)
    let origin = ref None in
    Array.iter
      (fun h ->
        if Placement.n_guests_on placement ~host:h > 0 then begin
          let cpu = Placement.residual_cpu placement ~host:h in
          match !origin with
          | Some (_, best) when best <= cpu -> ()
          | _ -> origin := Some (h, cpu)
        end)
      hosts;
    match !origin with
    | None -> false
    | Some (origin, _) -> (
      match Placement.guests_on placement ~host:origin with
      | [] -> false
      | guests ->
        let victim =
          Hmn_prelude.List_ext.min_by
            (fun g -> Migration.colocated_bandwidth placement ~guest:g)
            guests
        in
        let targets =
          List.filter (fun h -> h <> origin) (Array.to_list hosts)
          |> Hmn_prelude.List_ext.sort_by_desc (fun h ->
                 Placement.residual_cpu placement ~host:h)
        in
        let rec attempt = function
          | [] -> false
          | target :: rest -> (
            match
              Objective.load_balance_after_migration placement ~guest:victim
                ~host:target
            with
            | Some lbf when lbf < current -. 1e-9 -> (
              match Incremental.move_guest t ~guest:victim ~host:target with
              | Ok () ->
                incr moves;
                true
              | Error _ -> attempt rest)
            | _ -> attempt rest)
        in
        attempt targets)
  in
  let rec loop () = if !moves < max_moves && try_round () then loop () in
  loop ();
  !moves
