module Graph = Hmn_graph.Graph
module Cluster = Hmn_testbed.Cluster
module Virtual_env = Hmn_vnet.Virtual_env
module Placement = Hmn_mapping.Placement
module Problem = Hmn_mapping.Problem
module Objective = Hmn_mapping.Objective

type stats = {
  moves : int;
  lbf_before : float;
  lbf_after : float;
}

(* Strict-improvement threshold: protects termination against
   floating-point noise in the stddev computation. *)
let improvement_eps = 1e-9

let colocated_bandwidth placement ~guest =
  let problem = Placement.problem placement in
  let venv = problem.Problem.venv in
  match Placement.host_of placement ~guest with
  | None -> 0.
  | Some host ->
    Graph.fold_adj (Virtual_env.graph venv) guest ~init:0.
      ~f:(fun acc ~neighbor ~eid ->
        if Placement.host_of placement ~guest:neighbor = Some host then
          acc +. (Virtual_env.vlink venv eid).Hmn_vnet.Vlink.bandwidth_mbps
        else acc)

(* The host with the least residual CPU among those running guests,
   the first in [hosts] on ties; [-1] when every host is empty. *)
let most_loaded_host_with_guests placement hosts =
  let best = ref (-1) and best_cpu = ref infinity in
  for i = 0 to Array.length hosts - 1 do
    let cpu = Placement.residual_cpu placement ~host:hosts.(i) in
    if cpu < !best_cpu && Placement.n_guests_on placement ~host:hosts.(i) > 0 then begin
      best := hosts.(i);
      best_cpu := cpu
    end
  done;
  !best

let pick_victim placement ~host =
  match Placement.guests_on placement ~host with
  | [] -> None
  | guests -> Some (Hmn_prelude.List_ext.min_by (fun g -> colocated_bandwidth placement ~guest:g) guests)

(* Index in [hosts] of the next target after [(px, pi)] in walk order
   (residual CPU descending, then index) among hosts but [origin] and
   [skip] that pass the screen and fit [guest]; [-1] if none is left. *)
let next_target placement hosts ~origin ~skip ~guest ~v ~px ~pi =
  let x_origin = Placement.residual_cpu placement ~host:origin in
  let best = ref (-1) and best_x = ref 0. in
  for i = 0 to Array.length hosts - 1 do
    let h = hosts.(i) in
    let x = Placement.residual_cpu placement ~host:h in
    if
      h <> origin
      && x -. x_origin > v
      && (x < px || (x = px && i > pi))
      && (!best < 0 || x > !best_x)
      && (not (List.mem h skip))
      && Placement.fits placement ~guest ~host:h
    then begin
      best := i;
      best_x := x
    end
  done;
  !best

let walk ~max_moves ~move placement =
  let problem = Placement.problem placement in
  let hosts = Cluster.host_ids problem.Problem.cluster in
  let moves = ref 0 and tried = ref 0 in
  let current = ref (Objective.load_balance_factor placement) in
  let try_round () =
    let origin = most_loaded_host_with_guests placement hosts in
    match if origin < 0 then None else pick_victim placement ~host:origin with
    | None -> false
    | Some guest ->
      let v = (Virtual_env.demand problem.Problem.venv guest).Hmn_testbed.Resources.mips in
      (* The move keeps the mean residual and changes the sum of squares
         by 2v(x_origin - x_target + v), so only targets with
         x_target - x_origin > v > 0 can lower the LBF; the screen is
         monotone in x_target, so the walk ends at the first it rejects.
         [skip] holds targets a failed [move] may have left a rounding
         error on. *)
      let rec scan ~px ~pi ~skip =
        let i = next_target placement hosts ~origin ~skip ~guest ~v ~px ~pi in
        i >= 0
        &&
        let target = hosts.(i) in
        let x = Placement.residual_cpu placement ~host:target in
        incr tried;
        match Objective.load_balance_after_migration placement ~guest ~host:target with
        | Some lbf' when lbf' < !current -. improvement_eps -> (
          match move ~guest ~host:target with
          | Ok () ->
            incr moves;
            (* Equal, bit for bit, to recomputing it from the residuals. *)
            current := lbf';
            true
          | Error _ -> scan ~px:x ~pi:i ~skip:(target :: skip))
        | Some _ | None -> scan ~px:x ~pi:i ~skip
      in
      v > 0. && scan ~px:infinity ~pi:(-1) ~skip:[]
  in
  let rec loop () = if !moves < max_moves && try_round () then loop () in
  loop ();
  (!moves, !tried)

let run ?max_moves placement =
  let problem = Placement.problem placement in
  let n_guests = Virtual_env.n_guests problem.Problem.venv in
  let max_moves = Option.value max_moves ~default:(16 * n_guests) in
  let lbf_before = Objective.load_balance_factor placement in
  let moves, tried = walk ~max_moves ~move:(Placement.migrate placement) placement in
  let module Metrics = Hmn_obs.Metrics in
  if Metrics.enabled () then begin
    Metrics.Counter.add (Metrics.counter "migration.moves_tried") tried;
    Metrics.Counter.add (Metrics.counter "migration.moves_accepted") moves
  end;
  { moves; lbf_before; lbf_after = Objective.load_balance_factor placement }
