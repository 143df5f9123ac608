(* End-to-end and per-layer benchmark of the HMN mapper.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1

   Three workloads (NOTES.md records their sizes and why each exists):
   two batch instances mapped with the scale pipeline and deployed as
   verified artifact bundles, and one online admission session on a
   200-host Clos. Inputs are generated from --seed; the system under
   test only ever receives them as Codec JSON text (batch: the problem;
   online: the cluster) plus a Service.config.

   --trace 0 times the end-to-end metrics with tracing off. --trace 1
   re-runs the pipeline layer by layer, each call wrapped in an
   Hmn_obs.Trace span and a Gc.quick_stat delta, with Hmn_obs.Metrics
   counters on, and reports the per-layer metrics. Either way the last
   stdout line is one JSON object with the keys correct, attempted,
   failed and metrics; diagnostics go to stderr. Repetitions fill
   --seconds; every output is checked (validator, artifact round trip,
   repeat-for-repeat determinism and, for recorded seeds, the recorded
   fingerprint), and a failed check counts as a failed operation. *)

module Json = Hmn_prelude.Json
module Clock = Hmn_prelude.Clock
module Rng = Hmn_rng.Rng
module Cluster = Hmn_testbed.Cluster
module Problem = Hmn_mapping.Problem
module Mapping = Hmn_mapping.Mapping
module Link_map = Hmn_mapping.Link_map
module Codec = Hmn_io.Codec
module Mapper = Hmn_core.Mapper
module Hmn = Hmn_core.Hmn
module Hosting = Hmn_core.Hosting
module Migration = Hmn_core.Migration
module Networking = Hmn_core.Networking
module Astar_prune = Hmn_routing.Astar_prune
module Route_ctx = Hmn_routing.Route_ctx
module Validator = Hmn_validate.Validator
module Artifact_check = Hmn_validate.Artifact_check
module Compile = Hmn_artifact.Compile
module Decompile = Hmn_artifact.Decompile
module Scale = Hmn_experiments.Scale
module Service = Hmn_online.Service
module Session = Hmn_online.Session
module Occupancy = Hmn_online.Occupancy
module Tenant = Hmn_online.Tenant
module Trace = Hmn_obs.Trace
module Metrics = Hmn_obs.Metrics

(* ---- workloads ---------------------------------------------------- *)

type batch = { hosts : int; ratio : int; jobs : int }
type online = { online_hosts : int; rate_per_s : float; duration_s : float }
type workload = Batch of batch | Online of online

(* [jobs] is pinned per workload, never taken from the machine. *)
let workloads =
  [
    ("clos400_r25", Batch { hosts = 400; ratio = 25; jobs = 2 });
    ("clos1000_r1", Batch { hosts = 1000; ratio = 1; jobs = 1 });
    ( "online_clos200",
      Online { online_hosts = 200; rate_per_s = 0.5; duration_s = 6000. } );
  ]

(* Results recorded for the development seed (42) and a second seed
   (7), one per mapped problem (batch) or served stream (online); a run
   on either seed must reproduce them. Work counters (moves, expansions)
   are not recorded, so a change that does less work for the same
   results still passes. *)
let recorded =
  [
    (("clos400_r25", 42), [ "lbf=125.858263 routed=8909" ]);
    (("clos400_r25", 7), [ "lbf=122.653454 routed=8951" ]);
    (("clos1000_r1", 42), [ "lbf=468.680414 routed=1164" ]);
    (("clos1000_r1", 7), [ "lbf=468.323114 routed=1163" ]);
    ( ("online_clos200", 42),
      [
        "arrivals=2994 admitted=2497 defrag_moves=66 mean_lbf=549.253939";
        "arrivals=3061 admitted=2449 defrag_moves=87 mean_lbf=549.626395";
        "arrivals=3043 admitted=2448 defrag_moves=96 mean_lbf=551.196520";
      ] );
    ( ("online_clos200", 7),
      [
        "arrivals=3042 admitted=2536 defrag_moves=54 mean_lbf=548.186115";
        "arrivals=3071 admitted=2452 defrag_moves=103 mean_lbf=554.157465";
        "arrivals=2942 admitted=2405 defrag_moves=64 mean_lbf=552.420859";
      ] );
  ]

(* ---- measurement helpers ------------------------------------------ *)

exception Fatal of string

let fatal fmt = Printf.ksprintf (fun s -> raise (Fatal s)) fmt

type tally = { mutable attempted : int; mutable failed : int }

let tally = { attempted = 0; failed = 0 }

(* One checked operation: an attempt, and a failure when [f] raises or
   returns [Error]. *)
let attempt what f =
  tally.attempted <- tally.attempted + 1;
  let fail msg =
    tally.failed <- tally.failed + 1;
    Printf.eprintf "bench: %s failed: %s\n%!" what msg;
    None
  in
  match f () with
  | Ok v -> Some v
  | Error msg -> fail msg
  | exception (Fatal _ as e) -> raise e
  | exception e -> fail (Printexc.to_string e)

(* An operation the run cannot continue without. *)
let require what f =
  match attempt what f with Some v -> v | None -> fatal "%s failed" what

let median xs =
  let a = Array.of_list xs in
  let n = Array.length a in
  if n = 0 then fatal "median of no samples";
  Array.sort Float.compare a;
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let sum = List.fold_left ( +. ) 0.

let mean xs =
  if xs = [] then fatal "mean of no samples";
  sum xs /. float_of_int (List.length xs)

(* Nearest-rank percentile; refused unless at least ten samples lie
   beyond it, so a p99 never rests on the maximum of a few readings. *)
let percentile a p =
  let n = Array.length a in
  let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
  if rank < 1 || n - rank < 10 then
    fatal "p%g needs ten samples beyond it; have %d samples" (100. *. p) n;
  a.(rank - 1)

(* Words allocated so far by every domain. [Gc.quick_stat] counts a
   domain's minor-heap words only at its next minor collection, so one
   is forced first. *)
let allocated_words () =
  Gc.minor ();
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

let peak_heap_mb () =
  float_of_int (Gc.quick_stat ()).Gc.top_heap_words
  *. float_of_int (Sys.word_size / 8)
  /. 1e6

type measured = { secs : float; alloc_mw : float }

let zero = { secs = 0.; alloc_mw = 0. }
let add a b = { secs = a.secs +. b.secs; alloc_mw = a.alloc_mw +. b.alloc_mw }

(* Wall time of one call and, while tracing, its allocated words, inside
   a trace span (one branch when tracing is off). Untraced runs skip the
   allocation count, whose forced minor collections they must not pay. *)
let measure name f =
  Trace.with_span ~cat:"bench" name (fun () ->
      let counting = Trace.enabled () in
      let w0 = if counting then allocated_words () else 0. in
      let t0 = Clock.now_s () in
      let v = f () in
      let secs = Clock.elapsed_s t0 in
      let alloc_mw = if counting then (allocated_words () -. w0) /. 1e6 else 0. in
      (v, { secs; alloc_mw }))

(* Runs [step] at least [min] times, then again while the next
   repetition, predicted from the last one, ends before [deadline]. *)
let repeat_until ~deadline ~min step =
  let rec go i last =
    if i >= min && Clock.now_s () +. last > deadline then ()
    else begin
      let t0 = Clock.now_s () in
      step ();
      go (i + 1) (Clock.elapsed_s t0)
    end
  in
  go 0 0.

(* A fingerprint is a run's results and its work counters. Every
   repetition of a run must repeat the first one's whole fingerprint,
   and its results must equal the recorded ones when the seed has them. *)
let fingerprint_checker ?(part = 0) ~workload ~seed () =
  let want =
    Option.bind (List.assoc_opt (workload, seed) recorded) (fun l -> List.nth_opt l part)
  in
  let first = ref None in
  fun (result, work) ->
    let got = String.concat " " (List.filter (( <> ) "") [ result; work ]) in
    match (!first, want) with
    | Some first, _ when first <> got ->
      Error (Printf.sprintf "fingerprint %S, first repetition gave %S" got first)
    | _, Some want when want <> result ->
      Error (Printf.sprintf "results %S, recorded %S" result want)
    | _ ->
      if !first = None then Printf.eprintf "bench: fingerprint %d: %s\n%!" part got;
      first := Some got;
      Ok ()

let decode_problem text =
  match Json.of_string text with
  | Error e -> Error ("json: " ^ e)
  | Ok j -> Codec.problem_of_json j

(* One decode after a compaction, its time added to [times]. *)
let timed_decode ~times text =
  Gc.compact ();
  let p, m =
    require "decode" (fun () ->
        match measure "codec.problem_of_json" (fun () -> decode_problem text) with
        | Ok p, m -> Ok (p, m)
        | Error e, _ -> Error e)
  in
  times := m.secs :: !times;
  p

(* Median wall time of repeated decodes, and the last decoded problem. *)
let timed_decodes text =
  let times = ref [] and last = ref None in
  repeat_until ~deadline:(Clock.now_s () +. 1.) ~min:5 (fun () ->
      last := Some (timed_decode ~times text));
  match !last with Some p -> (p, median !times) | None -> fatal "no decode"

(* ---- deployment ---------------------------------------------------- *)

type deploy = {
  validate : measured;
  compile : measured;
  decompile : measured;
  check : measured;
  bundle_bytes : int;
}

let total_deploy d = d.validate.secs +. d.compile.secs +. d.decompile.secs +. d.check.secs

let decompile_and_check ~check bundle =
  let decoded, decompile =
    measure "artifact.decompile" (fun () -> Decompile.run ~files:bundle.Compile.files)
  in
  match decoded with
  | Error e -> Error ("decompile: " ^ e)
  | Ok d ->
    let report, check = measure "artifact.check" (fun () -> check d) in
    if Artifact_check.ok report then Ok (decompile, check)
    else
      Error
        (Printf.sprintf "artifact check: %d violations"
           (List.length report.Artifact_check.violations))

(* Mapping -> verified bundle: validation, shell-grammar compilation,
   decompilation and the round-trip check. *)
let deploy_mapping mapping =
  let report, validate = measure "validator.check" (fun () -> Validator.check mapping) in
  if report.Validator.violations <> [] then
    Error
      (Printf.sprintf "validator: %d violations" (List.length report.Validator.violations))
  else
    let bundle, compile =
      measure "artifact.compile" (fun () ->
          Compile.of_mapping ~format:Hmn_artifact.Spec.Shell mapping)
    in
    Result.map
      (fun (decompile, check) ->
        { validate; compile; decompile; check; bundle_bytes = Compile.bytes bundle })
      (decompile_and_check ~check:(fun d -> Artifact_check.check ~mapping d) bundle)

(* Every admitted tenant of a session realized as its per-tenant delta
   bundle and checked against the full cluster. *)
let deploy_tenants ~cluster tenants =
  List.fold_left
    (fun acc (t : Tenant.t) ->
      Result.bind acc (fun acc ->
          let bundle, compile =
            measure "artifact.compile" (fun () ->
                Compile.of_tenant ~format:Hmn_artifact.Spec.Shell ~cluster
                  ~venv:t.Tenant.venv ~id:t.Tenant.id ~hosts:t.Tenant.hosts
                  ~paths:t.Tenant.paths ())
          in
          Result.map
            (fun (decompile, check) ->
              {
                acc with
                compile = add acc.compile compile;
                decompile = add acc.decompile decompile;
                check = add acc.check check;
                bundle_bytes = acc.bundle_bytes + Compile.bytes bundle;
              })
            (decompile_and_check
               ~check:(fun d ->
                 Artifact_check.check_tenant ~cluster ~venv:t.Tenant.venv
                   ~hosts:t.Tenant.hosts ~paths:t.Tenant.paths d)
               bundle)))
    (Ok { validate = zero; compile = zero; decompile = zero; check = zero; bundle_bytes = 0 })
    tenants

(* ---- batch workloads ------------------------------------------------ *)

(* The testbed is fixed hardware: every workload runs on the cluster
   drawn from [testbed_seed], and --seed draws what is mapped onto it.
   Seed-to-seed differences then come from the virtual environments
   alone, which keeps the LBF steady across seeds. *)
let testbed_seed = 42

let testbed ~hosts = Scale.cluster ~shape:Scale.Clos ~hosts ~rng:(Rng.create testbed_seed)

(* [Scale.problem]'s recipe on the fixed testbed: the environment's rng
   first advances past the cluster draw exactly as [Scale.problem]
   does, so seed 42 gives [Scale.problem ~seed:42] itself. *)
let batch_input ~seed b =
  let cluster = testbed ~hosts:b.hosts in
  let rng = Rng.create seed in
  ignore (Scale.cluster ~shape:Scale.Clos ~hosts:b.hosts ~rng);
  let n_guests = b.ratio * Cluster.n_hosts cluster in
  let profile =
    if b.ratio <= 10 then Hmn_vnet.Workload.high_level else Hmn_vnet.Workload.low_level
  in
  let venv =
    Hmn_vnet.Venv_gen.generate
      ~scale_to_fit:(cluster, Hmn_experiments.Setup.fit_fraction)
      ~profile ~n:n_guests ~density:(Scale.density ~n_guests) ~rng ()
  in
  Json.to_string (Codec.problem_to_json (Problem.make ~cluster ~venv))

let max_moves problem = 4 * Cluster.n_hosts problem.Problem.cluster

let batch_fingerprint mapping ~moves ~routed ~expanded =
  ( Printf.sprintf "lbf=%.6f routed=%d" (Mapping.objective mapping) routed,
    Printf.sprintf "moves=%d expanded=%d" moves expanded )

let report_fingerprint mapping (r : Hmn.stage_report) =
  match (r.Hmn.migration_stats, r.Hmn.networking_stats) with
  | Some m, Some n ->
    Ok
      (batch_fingerprint mapping ~moves:m.Migration.moves ~routed:n.Networking.routed
         ~expanded:n.Networking.expanded)
  | _ -> Error "stage report incomplete"

(* One Hmn.run_sharded_detailed call, the same as [hmn_cli scale]. *)
let map_batch ~jobs ~check problem =
  let (outcome, report), secs =
    Clock.time (fun () ->
        Hmn.run_sharded_detailed ~jobs ~max_moves:(max_moves problem) problem)
  in
  match outcome.Mapper.result with
  | Error f -> Error ("mapping: " ^ f.Mapper.reason)
  | Ok mapping ->
    Result.bind (report_fingerprint mapping report) (fun fp ->
        Result.map (fun () -> (mapping, secs)) (check fp))

(* Per-route latency: the mapped placement re-routed by Networking.run
   through a router hook that times every A*Prune call. The paths must
   equal the mapping's. Returns the pass's (p50, p99) in seconds. *)
let route_latencies mapping =
  let ctx = Route_ctx.create () in
  let samples = ref [] in
  let router ~residual ~latency_tables ~src ~dst ~bandwidth_mbps ~latency_ms () =
    let t0 = Clock.now_s () in
    let r =
      Astar_prune.route ~ctx ~residual ~latency_tables ~src ~dst ~bandwidth_mbps
        ~latency_ms ()
    in
    samples := Clock.elapsed_s t0 :: !samples;
    Option.map fst r
  in
  match Networking.run ~router mapping.Mapping.placement with
  | Error f -> Error ("re-route: " ^ f.Mapper.reason)
  | Ok (link_map, _) ->
    let same = ref (Link_map.n_mapped link_map = Link_map.n_mapped mapping.Mapping.link_map) in
    Link_map.iter_mapped mapping.Mapping.link_map (fun ~vlink p ->
        if Link_map.path_of link_map ~vlink <> Some p then same := false);
    if not !same then Error "re-routed paths differ"
    else
      let a = Array.of_list !samples in
      Array.sort Float.compare a;
      Ok (percentile a 0.50, percentile a 0.99)

(* Each repetition decodes and maps, then runs deploy-and-route rounds
   (deploy, re-route with per-route timing, decode again) for about as
   long as the mapping took, at least one; each phase starts after a
   full major collection. A run reports the mean over its repetitions
   and rounds: host speed on a small shared VM drifts by up to 1.8x, and
   a low quantile or a median of a few samples follows that drift more
   than their mean does (NOTES.md has the comparison). Route latency
   percentiles are taken per pass and averaged the same way; set-up, with
   many short samples, reports their median. *)
let end_to_end_batch ~workload ~seed ~deadline b =
  let text = batch_input ~seed b in
  let check = fingerprint_checker ~workload ~seed () in
  let decodes = ref [] and maps = ref [] and deploys = ref [] and routes = ref [] in
  let tries = ref 0 and lbf = ref nan and peak_mb = ref nan and n_guests = ref 0 in
  repeat_until ~deadline ~min:3 (fun () ->
      let problem = timed_decode ~times:decodes text in
      n_guests := Hmn_vnet.Virtual_env.n_guests problem.Problem.venv;
      Gc.compact ();
      incr tries;
      match attempt "map" (fun () -> map_batch ~jobs:b.jobs ~check problem) with
      | None -> ()
      | Some (mapping, secs) ->
        maps := secs :: !maps;
        lbf := Mapping.objective mapping;
        repeat_until ~deadline:(Clock.now_s () +. secs) ~min:1 (fun () ->
            Gc.compact ();
            Option.iter
              (fun d -> deploys := total_deploy d :: !deploys)
              (attempt "deploy" (fun () -> deploy_mapping mapping));
            Gc.compact ();
            Option.iter
              (fun r -> routes := r :: !routes)
              (attempt "route latencies" (fun () -> route_latencies mapping));
            ignore (timed_decode ~times:decodes text));
        if Float.is_nan !peak_mb then peak_mb := peak_heap_mb ());
  let map_s = mean !maps in
  Printf.eprintf "bench: %d repetitions, %d rounds, %d set-ups\n%!" !tries
    (List.length !deploys) (List.length !decodes);
  [
    ("setup_s", "s", median !decodes);
    ("map_s", "s", map_s);
    ("deploy_s", "s", mean !deploys);
    ("lbf", "MIPS", !lbf);
    ("peak_heap_mb", "MB", !peak_mb);
    ("admit_p50_ms", "ms", 1e3 *. mean (List.map fst !routes));
    ("admit_p99_ms", "ms", 1e3 *. mean (List.map snd !routes));
    ("requests_per_s", "1/s", float_of_int !n_guests /. map_s);
    ("acceptance", "ratio", float_of_int (List.length !maps) /. float_of_int !tries);
  ]

(* ---- per-layer (traced) runs ---------------------------------------- *)

let counter (snap : Metrics.snapshot) name =
  float_of_int (Option.value ~default:0 (List.assoc_opt name snap.Metrics.counters))

let gauge_max (snap : Metrics.snapshot) name =
  float_of_int (Option.value ~default:0 (List.assoc_opt name snap.Metrics.gauge_maxima))

(* Layer totals of one pipeline pass (batch) or one session (online). *)
type layers = {
  mutable hosting : measured;
  mutable migration : measured;
  mutable networking : measured;
  mutable precompute_s : float;
  mutable moves : int;
  mutable lbf_gain : float;
  mutable routed : int;
  mutable intra_host : int;
  mutable expanded : int;
  mutable generated : int;
  mutable validator : measured;
}

let new_layers () =
  {
    hosting = zero;
    migration = zero;
    networking = zero;
    precompute_s = 0.;
    moves = 0;
    lbf_gain = 0.;
    routed = 0;
    intra_host = 0;
    expanded = 0;
    generated = 0;
    validator = zero;
  }

(* Hosting, Migration and Networking called one by one — the stages of
   Hmn.run_stages — each under its own span and GC delta. *)
let staged_pipeline l ~hosting ?max_moves problem =
  let placement, h = measure "hosting" (fun () -> hosting problem) in
  l.hosting <- add l.hosting h;
  match placement with
  | Error f -> Error f
  | Ok placement -> (
    let m, mt = measure "migration" (fun () -> Migration.run ?max_moves placement) in
    l.migration <- add l.migration mt;
    l.moves <- l.moves + m.Migration.moves;
    l.lbf_gain <- l.lbf_gain +. (m.Migration.lbf_before -. m.Migration.lbf_after);
    let net, nt = measure "networking" (fun () -> Networking.run placement) in
    l.networking <- add l.networking nt;
    match net with
    | Error f -> Error f
    | Ok (link_map, s) ->
      l.precompute_s <- l.precompute_s +. s.Networking.precompute_s;
      l.routed <- l.routed + s.Networking.routed;
      l.intra_host <- l.intra_host + s.Networking.intra_host;
      l.expanded <- l.expanded + s.Networking.expanded;
      l.generated <- l.generated + s.Networking.generated;
      Ok (Mapping.make ~placement ~link_map, m, s))

let per_route l x = if l.routed = 0 then 0. else x /. float_of_int l.routed
let per_move l x = if l.moves = 0 then 0. else x /. float_of_int l.moves

type service = {
  policy_s : float;
  overhead_s : float;  (** session wall time outside the policy *)
  admitted : int;
  rejected : int;
  defrag_moves : int;
  alloc_mw_per_request : float;
}

(* The per-layer metric set, common to every workload; a layer the
   workload does not run reads 0. *)
let layer_metrics ~decode_s ~input_bytes ~hosting_jobs1_s ~(l : layers) ~snap ~deploy
    ?service ~overhead_pct () =
  let moves_tried = counter snap "migration.moves_tried" in
  let svc f = match service with Some s -> f s | None -> 0. in
  let stage x = svc (fun _ -> x) in
  [
    ("codec.decode_s", "s", decode_s);
    ("codec.input_mb", "MB", float_of_int input_bytes /. 1e6);
    ("hosting.run_s", "s", l.hosting.secs);
    ("hosting.run_s_jobs1", "s", hosting_jobs1_s);
    ("hosting.alloc_mw", "Mw", l.hosting.alloc_mw);
    ("hosting.sharded.repaired", "count", counter snap "hosting.sharded.repaired");
    ("migration.run_s", "s", l.migration.secs);
    ("migration.moves", "count", float_of_int l.moves);
    ("migration.moves_tried", "count", moves_tried);
    ( "migration.accept_ratio",
      "ratio",
      if moves_tried = 0. then 0. else float_of_int l.moves /. moves_tried );
    ("migration.ms_per_move", "ms", per_move l (1e3 *. l.migration.secs));
    ("migration.lbf_gain", "MIPS", l.lbf_gain);
    ("migration.alloc_mw", "Mw", l.migration.alloc_mw);
    ("networking.run_s", "s", l.networking.secs);
    ("networking.precompute_s", "s", l.precompute_s);
    ("networking.routed", "count", float_of_int l.routed);
    ("networking.intra_host", "count", float_of_int l.intra_host);
    ("networking.expanded", "count", float_of_int l.expanded);
    ("networking.generated", "count", float_of_int l.generated);
    ("networking.labels_per_route", "count", per_route l (float_of_int l.expanded));
    ("networking.us_per_route", "us", per_route l (1e6 *. l.networking.secs));
    ("networking.alloc_mw", "Mw", l.networking.alloc_mw);
    ("astar.pruned_latency", "count", counter snap "astar.pruned_latency");
    ("astar.pruned_bandwidth", "count", counter snap "astar.pruned_bandwidth");
    ("astar.pruned_dominated", "count", counter snap "astar.pruned_dominated");
    ("astar.heap_max", "count", gauge_max snap "astar.heap_max");
    ("latency_table.dijkstras", "count", counter snap "latency_table.dijkstras");
    ("residual.reserve_failures", "count", counter snap "residual.reserve_failures");
    ("validator.check_s", "s", l.validator.secs);
    ("artifact.compile_s", "s", deploy.compile.secs);
    ("artifact.decompile_s", "s", deploy.decompile.secs);
    ("artifact.check_s", "s", deploy.check.secs);
    ("artifact.bundle_mb", "MB", float_of_int deploy.bundle_bytes /. 1e6);
    ("service.policy_s", "s", svc (fun s -> s.policy_s));
    ("service.overhead_s", "s", svc (fun s -> s.overhead_s));
    ("service.hosting_s", "s", stage l.hosting.secs);
    ("service.migration_s", "s", stage l.migration.secs);
    ("service.networking_s", "s", stage l.networking.secs);
    ("service.precompute_s", "s", stage l.precompute_s);
    ("service.admitted", "count", svc (fun s -> float_of_int s.admitted));
    ("service.rejected", "count", svc (fun s -> float_of_int s.rejected));
    ("service.defrag_moves", "count", svc (fun s -> float_of_int s.defrag_moves));
    ("service.alloc_mw_per_request", "Mw", svc (fun s -> s.alloc_mw_per_request));
    ("trace.overhead_pct", "%", overhead_pct);
  ]

(* Each repetition pairs an untraced Hmn.run_sharded_detailed with the
   traced stage-by-stage pipeline, so the tracing overhead is measured
   on adjacent runs; the trace file keeps the last repetition. *)
let traced_batch ~workload ~seed ~deadline b =
  let text = batch_input ~seed b in
  let problem, decode_s = timed_decodes text in
  let check = fingerprint_checker ~workload ~seed () in
  let max_moves = max_moves problem in
  let runs = ref [] in
  repeat_until ~deadline ~min:1 (fun () ->
      Gc.compact ();
      let _, untraced_s = require "map" (fun () -> map_batch ~jobs:b.jobs ~check problem) in
      Trace.clear ();
      Trace.enable ();
      Metrics.enable ();
      Gc.compact ();
      let _, jobs1 = measure "hosting.jobs1" (fun () -> Hosting.run_sharded ~jobs:1 problem) in
      Metrics.reset ();
      Gc.compact ();
      let l = new_layers () in
      let result =
        require "staged map" (fun () ->
            match
              staged_pipeline l ~hosting:(Hosting.run_sharded ~jobs:b.jobs) ~max_moves problem
            with
            | Error f -> Error f.Mapper.reason
            | Ok (mapping, m, s) ->
              Result.map
                (fun () -> mapping)
                (check
                   (batch_fingerprint mapping ~moves:m.Migration.moves
                      ~routed:s.Networking.routed ~expanded:s.Networking.expanded)))
      in
      let snap = Metrics.snapshot () in
      Gc.compact ();
      let deploy = require "deploy" (fun () -> deploy_mapping result) in
      Trace.disable ();
      Metrics.disable ();
      l.validator <- deploy.validate;
      let traced_s = l.hosting.secs +. l.migration.secs +. l.networking.secs in
      let overhead = (traced_s -. untraced_s) /. untraced_s in
      runs := (l, jobs1.secs, overhead, snap, deploy) :: !runs);
  (* medians of the timings; the counters repeat exactly *)
  let med f = median (List.map f !runs) in
  let l, _, _, snap, deploy = List.hd !runs in
  let m_secs f = { (f l) with secs = med (fun (l, _, _, _, _) -> (f l).secs) } in
  let l =
    {
      l with
      hosting = m_secs (fun l -> l.hosting);
      migration = m_secs (fun l -> l.migration);
      networking = m_secs (fun l -> l.networking);
      precompute_s = med (fun (l, _, _, _, _) -> l.precompute_s);
      validator = m_secs (fun l -> l.validator);
    }
  in
  let m_deploy f = { (f deploy) with secs = med (fun (_, _, _, _, d) -> (f d).secs) } in
  let deploy =
    {
      deploy with
      compile = m_deploy (fun d -> d.compile);
      decompile = m_deploy (fun d -> d.decompile);
      check = m_deploy (fun d -> d.check);
    }
  in
  layer_metrics ~decode_s ~input_bytes:(String.length text)
    ~hosting_jobs1_s:(med (fun (_, j, _, _, _) -> j))
    ~l ~snap ~deploy
    ~overhead_pct:(100. *. med (fun (_, _, o, _, _) -> o))
    ()

(* ---- online workload ------------------------------------------------ *)

(* The testbed cluster as Codec JSON text. Codec carries a cluster inside
   a problem: a two-guest placeholder environment makes the envelope,
   and only the cluster is used. *)
let online_input o =
  let cluster = testbed ~hosts:o.online_hosts in
  let venv =
    Hmn_vnet.Venv_gen.generate ~profile:Hmn_vnet.Workload.high_level ~n:2 ~density:1.
      ~rng:(Rng.create testbed_seed) ()
  in
  Json.to_string (Codec.problem_to_json (Problem.make ~cluster ~venv))

(* A run serves [streams] independent request streams, the first drawn
   from --seed itself; averaging over them keeps acceptance and LBF
   steady from seed to seed. *)
let streams = 3

let stream_config ~seed o i =
  {
    Service.default_config with
    seed = seed + (i * 1_000_000);
    arrival_rate_per_s = o.rate_per_s;
    duration_s = o.duration_s;
  }

(* Service start: decode the cluster and build the occupancy (its
   latency tables included). A start takes about 2 ms, so each call
   times a quarter second of starts into [times] and returns the
   decoded cluster. *)
let service_starts ~times text =
  Gc.compact ();
  let last = ref None in
  repeat_until ~deadline:(Clock.now_s () +. 0.25) ~min:50 (fun () ->
      let cluster, m =
        require "service start" (fun () ->
            match
              measure "service.start" (fun () ->
                  Result.map
                    (fun p ->
                      let c = p.Problem.cluster in
                      ignore (Occupancy.create c);
                      c)
                    (decode_problem text))
            with
            | Ok c, m -> Ok (c, m)
            | Error e, _ -> Error e)
      in
      last := Some cluster;
      times := m.secs :: !times);
  match !last with Some c -> c | None -> fatal "no start"

let online_fingerprint (s : Session.summary) =
  ( Printf.sprintf "arrivals=%d admitted=%d defrag_moves=%d mean_lbf=%.6f" s.Session.arrivals
      s.Session.admitted s.Session.defrag_moves s.Session.mean_lbf,
    "" )

type session = {
  summary : Session.summary;
  wall_s : float;
  policy_samples : float list;
  tenants : Tenant.t list;
}

(* One Service.run with [policy] wrapped so that every call is timed. *)
let run_session ~cluster ~config policy =
  let samples = ref [] and tenants = ref [] in
  let timed =
    {
      policy with
      Mapper.run =
        (fun ~rng p ->
          let t0 = Clock.now_s () in
          let o = policy.Mapper.run ~rng p in
          samples := Clock.elapsed_s t0 :: !samples;
          o);
    }
  in
  Gc.compact ();
  let summary, wall_s =
    Clock.time (fun () ->
        Service.run ~on_admit:(fun t -> tenants := t :: !tenants) ~cluster ~policy:timed
          config)
  in
  { summary; wall_s; policy_samples = !samples; tenants = List.rev !tenants }

let checked_session ~check ~cluster ~config policy =
  let s = run_session ~cluster ~config policy in
  Result.map (fun () -> s) (check (online_fingerprint s.summary))

(* The validated session, outside the timed runs: the full multi-tenant
   state is re-checked after every event. Validation costs about twice
   the session itself, so it covers the first quarter of the arrival
   horizon. *)
let validated_session ~cluster ~config =
  let config =
    { config with Service.validate = true; duration_s = config.Service.duration_s /. 4. }
  in
  ignore
    (attempt "validated session" (fun () -> Ok (run_session ~cluster ~config Hmn.mapper)))

(* What a run keeps of one served stream. *)
type served = {
  stream : Session.summary;
  session_s : float;
  policy_s : float;
  deploy_s : float;
  admit_p50_s : float;
  admit_p99_s : float;
}

(* The streams are served round robin, one session per step, until the
   deadline. Timings are per-stream means over that stream's sessions
   (for the reason given at [end_to_end_batch]), summed or averaged over
   the streams; admission latency percentiles are taken per session and
   averaged the same way. *)
let end_to_end_online ~workload ~seed ~deadline o =
  let text = online_input o in
  let starts = ref [] in
  let cluster = service_starts ~times:starts text in
  let configs =
    Array.init streams (fun i ->
        (stream_config ~seed o i, fingerprint_checker ~workload ~seed ~part:i ()))
  in
  validated_session ~cluster ~config:(fst configs.(0));
  let served = Array.make streams [] and peak_mb = ref nan and next = ref 0 in
  repeat_until ~deadline ~min:streams (fun () ->
      let i = !next mod streams in
      incr next;
      let config, check = configs.(i) in
      (* more starts before every session, so their median spans the run *)
      ignore (service_starts ~times:starts text);
      (match
         attempt "session" (fun () -> checked_session ~check ~cluster ~config Hmn.mapper)
       with
      | None -> ()
      | Some s ->
        let admits = Array.of_list s.policy_samples in
        Array.sort Float.compare admits;
        Gc.compact ();
        Option.iter
          (fun d ->
            served.(i) <-
              {
                stream = s.summary;
                session_s = s.wall_s;
                policy_s = sum s.policy_samples;
                deploy_s = total_deploy d;
                admit_p50_s = percentile admits 0.50;
                admit_p99_s = percentile admits 0.99;
              }
              :: served.(i))
          (attempt "deploy" (fun () -> deploy_tenants ~cluster s.tenants)));
      if !next = streams then peak_mb := peak_heap_mb ());
  let served = Array.to_list served in
  if List.mem [] served then fatal "a stream was never served";
  Printf.eprintf "bench: sessions per stream %s, %d starts\n%!"
    (String.concat "/" (List.map (fun r -> string_of_int (List.length r)) served))
    (List.length !starts);
  let per_stream f = List.map (fun runs -> mean (List.map f runs)) served in
  let summaries = List.map (fun runs -> (List.hd runs).stream) served in
  let total f = float_of_int (List.fold_left (fun acc s -> acc + f s) 0 summaries) in
  let arrivals = total (fun s -> s.Session.arrivals) in
  [
    ("setup_s", "s", median !starts);
    ("map_s", "s", mean (per_stream (fun r -> r.policy_s)));
    ("deploy_s", "s", mean (per_stream (fun r -> r.deploy_s)));
    ("lbf", "MIPS", mean (List.map (fun s -> s.Session.mean_lbf) summaries));
    ("peak_heap_mb", "MB", !peak_mb);
    ("admit_p50_ms", "ms", 1e3 *. mean (per_stream (fun r -> r.admit_p50_s)));
    ("admit_p99_ms", "ms", 1e3 *. mean (per_stream (fun r -> r.admit_p99_s)));
    ("requests_per_s", "1/s", arrivals /. sum (per_stream (fun r -> r.session_s)));
    ("acceptance", "ratio", total (fun s -> s.Session.admitted) /. arrivals);
  ]

(* One untraced and one traced session on the first stream. *)
let traced_online ~workload ~seed o =
  let text = online_input o in
  let problem, decode_s = timed_decodes text in
  let cluster = problem.Problem.cluster in
  let config = stream_config ~seed o 0 in
  let check = fingerprint_checker ~workload ~seed ~part:0 () in
  let reference =
    require "session" (fun () -> checked_session ~check ~cluster ~config Hmn.mapper)
  in
  Trace.enable ();
  Metrics.enable ();
  Metrics.reset ();
  let l = new_layers () in
  (* Hmn.run, stage by stage; each successful mapping is also validated,
     outside the policy timer. *)
  let staged =
    {
      Hmn.mapper with
      Mapper.run =
        (fun ~rng:_ problem ->
          let result, elapsed_s =
            Clock.time (fun () -> staged_pipeline l ~hosting:Hosting.run problem)
          in
          let result =
            Result.map
              (fun (mapping, _, _) ->
                let report, v =
                  measure "validator.check" (fun () -> Validator.check mapping)
                in
                l.validator <- add l.validator v;
                ignore
                  (attempt "validate admission" (fun () ->
                       if report.Validator.violations = [] then Ok ()
                       else Error "validator violations"));
                mapping)
              result
          in
          let last_failure = match result with Error f -> Some f | Ok _ -> None in
          { Mapper.result; elapsed_s; stage_seconds = []; tries = 1; last_failure });
    }
  in
  let w0 = allocated_words () in
  let s = require "staged session" (fun () -> checked_session ~check ~cluster ~config staged) in
  let session_mw = (allocated_words () -. w0) /. 1e6 in
  let snap = Metrics.snapshot () in
  Gc.compact ();
  let deploy = require "deploy" (fun () -> deploy_tenants ~cluster s.tenants) in
  Trace.disable ();
  Metrics.disable ();
  (* the policy timer includes the validation done inside the wrapper *)
  let policy_s = sum s.policy_samples -. l.validator.secs in
  let summary = s.summary in
  let arrivals = float_of_int summary.Session.arrivals in
  let traced_s = s.wall_s -. l.validator.secs in
  layer_metrics ~decode_s ~input_bytes:(String.length text)
    ~hosting_jobs1_s:l.hosting.secs ~l ~snap ~deploy
    ~service:
      {
        policy_s;
        overhead_s = traced_s -. policy_s;
        admitted = summary.Session.admitted;
        rejected = summary.Session.rejected;
        defrag_moves = summary.Session.defrag_moves;
        alloc_mw_per_request = (session_mw -. l.validator.alloc_mw) /. arrivals;
      }
    ~overhead_pct:(100. *. (traced_s -. reference.wall_s) /. reference.wall_s)
    ()

(* ---- driver ------------------------------------------------------- *)

(* The traced run's spans, as a Chrome trace next to the sources. *)
let write_trace ~workload ~seed =
  let dir = "hmnbench.out" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  Trace.write ~path:(Filename.concat dir (Printf.sprintf "%s-seed%d.trace.json" workload seed))

let number v =
  if not (Float.is_finite v) then fatal "non-finite metric";
  Printf.sprintf "%.17g" v

let print_result metrics =
  let body =
    String.concat ", "
      (List.map
         (fun (name, unit_, v) ->
           Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name (number v) unit_)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (tally.failed = 0) tally.attempted tally.failed body

let () =
  let workload = ref "" and seed = ref 42 and seconds = ref 10. and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measurement budget");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  match (List.assoc_opt !workload workloads, !trace) with
  | None, _ ->
    Printf.eprintf "bench: unknown workload %S (one of: %s)\n" !workload
      (String.concat ", " (List.map fst workloads));
    exit 2
  | _, t when t <> 0 && t <> 1 ->
    prerr_endline "bench: --trace must be 0 or 1";
    exit 2
  | Some w, t -> (
    let deadline = Clock.now_s () +. !seconds in
    let workload = !workload and seed = !seed in
    try
      let metrics =
        match (w, t) with
        | Batch b, 0 -> end_to_end_batch ~workload ~seed ~deadline b
        | Online o, 0 -> end_to_end_online ~workload ~seed ~deadline o
        | Batch b, _ -> traced_batch ~workload ~seed ~deadline b
        | Online o, _ -> traced_online ~workload ~seed o
      in
      let metrics =
        if t = 0 then
          metrics
          @ [
              ( "ok_share",
                "ratio",
                1. -. (float_of_int tally.failed /. float_of_int (max 1 tally.attempted)) );
            ]
        else metrics
      in
      if t = 1 then write_trace ~workload ~seed;
      print_result metrics
    with Fatal msg ->
      Printf.eprintf "bench: %s\n" msg;
      exit 1)
