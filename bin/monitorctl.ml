(* monitorctl — command-line front end for the monitoring-placement
   library.

   Subcommands mirror the paper's workflows: generate a POP topology
   and traffic matrix, place passive taps (PPM), place sampling
   devices (PPME), re-optimize sampling rates (PPME star), place
   active beacons, and run the figure sweeps.

   Examples:
     monitorctl topology --preset pop10 --seed 1 --dot pop.dot
     monitorctl passive --preset pop15 --seed 3 --coverage 0.95 --method exact
     monitorctl sampling --preset pop10 --coverage 0.9
     monitorctl active --preset pop29 --vb 12 --method ilp
     monitorctl dynamic --steps 40 --sigma 0.3
     monitorctl sweep --figure fig9 *)

module Instance = Monpos.Instance
module Passive = Monpos.Passive
module Sampling = Monpos.Sampling
module Mecf = Monpos.Mecf
module Active = Monpos.Active
module Scenario = Monpos.Scenario
module Resilient = Monpos.Resilient
module Pop = Monpos_topo.Pop
module Topo_file = Monpos_topo.Topo_file
module Graph = Monpos_graph.Graph
module Table = Monpos_util.Table
module Prng = Monpos_util.Prng
module Obs_trace = Monpos_obs.Trace
module Obs_metrics = Monpos_obs.Metrics
module Mip = Monpos_lp.Mip
module Mincost = Monpos_flow.Mincost
module Rerror = Monpos_resilience.Error
module Preempt = Monpos_resilience.Preempt
module Synthetic = Monpos_topo.Synthetic
module Traffic = Monpos_traffic.Traffic
open Cmdliner

(* Exit codes (also in the man pages): 2 bad input, 3 degraded result,
   4 numerical/internal failure, 5 preempted — see
   Monpos_resilience.Error.exit_code and Monpos_resilience.Preempt. *)
let exits =
  Cmd.Exit.info 2
    ~doc:
      "on bad input: an unparsable topology/demand file, an unknown \
       method or sample name, an infeasible coverage target, or an \
       unwritable $(b,--checkpoint)/$(b,--flight-dump) destination \
       (validated at startup)."
  :: Cmd.Exit.info 3
       ~doc:
         "on a degraded result: a wall-clock deadline expired and the \
          degradation ladder answered from a rung below proven \
          optimality (the placement printed is still feasible)."
  :: Cmd.Exit.info 4 ~doc:"on a numerical failure or internal error."
  :: Cmd.Exit.info 5
       ~doc:
         "when the solve was preempted by SIGINT/SIGTERM: the search \
          stopped cooperatively at the next wave barrier, the answer \
          printed is the incumbent with its LP-certified bound, and \
          with $(b,--checkpoint) set a final checkpoint was written \
          for $(b,monitorctl resume). A second signal skips the \
          barrier and exits immediately with 130 (SIGINT) or 143 \
          (SIGTERM)."
  :: Cmd.Exit.defaults

(* Command-line mistakes share the parse-error taxonomy (and its exit
   code 2); the pseudo-file names the argument. *)
let bad_input msg =
  raise (Rerror.Error (Rerror.Parse_error { file = "<args>"; line = 0; msg }))

(* ------------------------------------------------------------------ *)
(* observability flags, shared by every subcommand                     *)

type obs = {
  trace : string option;
  metrics : bool;
  progress : bool;
  prom_out : string option;
  flight_dump : string option;
  stack_hz : float option;
  trace_sample : int option;
}

let obs_term =
  let trace_arg =
    let doc =
      "Write structured solver trace events (JSONL, one object per \
       line: branch-and-bound nodes, incumbents, simplex phases, flow \
       augmentations, spans) to $(docv). Analyze it afterwards with \
       $(b,monitorctl analyze)."
    in
    Arg.(
      value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)
  in
  let metrics_arg =
    let doc = "Print the solver metrics registry after the command." in
    Arg.(value & flag & info [ "metrics" ] ~doc)
  in
  let progress_arg =
    let doc =
      "Report live solve progress (nodes visited, incumbent, bound, \
       gap, elapsed) on one in-place stderr line, throttled. Combines \
       with $(b,--trace): the same events feed both sinks."
    in
    Arg.(value & flag & info [ "progress" ] ~doc)
  in
  let prom_out_arg =
    let doc =
      "After the command, write the metrics registry to $(docv) in \
       Prometheus text exposition format (0.0.4) for file-based \
       scraping (node_exporter textfile collector, CI artifacts)."
    in
    Arg.(
      value & opt (some string) None & info [ "prom-out" ] ~docv:"FILE" ~doc)
  in
  let flight_dump_arg =
    let doc =
      "Arm flight-recorder dumps into $(docv): the recorder always \
       retains the last events per domain, and on a deadline expiry, \
       degradation-ladder descent, chaos injection or uncaught \
       exception the retained window is written to \
       $(docv)/flight-<n>-<reason>.jsonl — ordinary trace JSONL, \
       readable by $(b,monitorctl analyze) and $(b,monitorctl diff). \
       Without this flag recording still runs but triggers are inert."
    in
    Arg.(
      value
      & opt (some string) None
      & info [ "flight-dump" ] ~docv:"DIR" ~doc)
  in
  let stack_hz_arg =
    let doc =
      "Sample every domain's open-span stack $(docv) times per second \
       into $(b,stack_sample) trace events (a wall-clock profile; \
       render it with $(b,monitorctl analyze --folded)). Needs a live \
       sink: combine with $(b,--trace) or $(b,--flight-dump)."
    in
    Arg.(
      value & opt (some float) None & info [ "stack-hz" ] ~docv:"HZ" ~doc)
  in
  let trace_sample_arg =
    let doc =
      "Head-sample high-frequency trace events (B&B nodes, simplex \
       phases, flow pivot batches, spans): pass the first $(docv) \
       events of each class, then keep 1-in-N with the dropped count \
       stamped as $(b,sampled_of) so $(b,analyze) rescales exactly. \
       Deterministic; metrics stay exact. Overrides \
       $(b,MONPOS_TRACE_SAMPLE)."
    in
    Arg.(
      value
      & opt (some int) None
      & info [ "trace-sample" ] ~docv:"N" ~doc)
  in
  let make trace metrics progress prom_out flight_dump stack_hz trace_sample =
    { trace; metrics; progress; prom_out; flight_dump; stack_hz; trace_sample }
  in
  Term.(
    const make $ trace_arg $ metrics_arg $ progress_arg $ prom_out_arg
    $ flight_dump_arg $ stack_hz_arg $ trace_sample_arg)

let write_prom_snapshot path =
  (try
     Out_channel.with_open_text path (fun oc ->
         output_string oc
           (Monpos_obs.Prom.to_prometheus
              (Obs_metrics.snapshot Obs_metrics.default)))
   with Sys_error msg -> Rerror.io_error ~path msg);
  Format.printf "prometheus snapshot written to %s@." path

(* Spawn the wall-clock stack-sampling ticker: every 1/hz seconds,
   snapshot each domain's open-span stack (racy reads, bounded by the
   span cells' clamping) and emit one stack_sample event per busy
   domain. The ticker runs on its own domain so it observes the solver
   domains from outside; it stops when asked and is joined before the
   sink closes. *)
let start_stack_ticker sink hz =
  let stop = Atomic.make false in
  let d =
    Domain.spawn (fun () ->
        let period = 1.0 /. Float.max 0.1 hz in
        while not (Atomic.get stop) do
          Unix.sleepf period;
          if not (Atomic.get stop) then
            List.iter
              (fun (domain, names) ->
                Obs_trace.stack_sample sink ~domain
                  ~stack:(String.concat ";" names))
              (Monpos_obs.Span.live_stacks ())
        done)
  in
  fun () ->
    Atomic.set stop true;
    Domain.join d

(* Install the observability tier around the command body: the trace
   sink (--trace and --progress each contribute one; the flight
   recorder always contributes its ring sink), the head-sampler
   threshold, the run manifest (emitted on the sink, stamped into
   /statusz and every flight dump), and the stack-sampling ticker.
   Everything is torn down afterwards, then the metrics table /
   Prometheus snapshot render when requested. [jobs] is the
   worker-domain count the subcommand resolved, for the manifest. The
   whole body runs inside the typed-error boundary: any
   Monpos_resilience.Error that escapes — including the Io_error we
   raise for an unopenable --trace or --prom-out destination — becomes
   a one-line message and a documented exit code instead of a
   backtrace; any other uncaught exception snapshots the flight
   recorder before propagating. *)

(* Fail fast (Io_error, exit 2) on an unwritable --checkpoint or
   --flight-dump destination: both are written late in the run — at a
   wave barrier, or when something has already gone wrong — and a
   solver that only discovers the bad path then has burned the search
   (or lost the dump). Mirrors the flight recorder's own mkdir -p so a
   creatable directory passes. *)
let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir)
  then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let validate_writable ~path dir =
  let dir = if dir = "" then "." else dir in
  (try mkdir_p dir
   with Unix.Unix_error (e, _, _) ->
     Rerror.io_error ~path (Unix.error_message e));
  let probe =
    Filename.concat dir (Printf.sprintf ".monpos-writable-%d" (Unix.getpid ()))
  in
  (try Out_channel.with_open_bin probe (fun _ -> ())
   with Sys_error msg -> Rerror.io_error ~path msg);
  try Sys.remove probe with Sys_error _ -> ()

let with_obs ?jobs ?checkpoint obs f =
  try
    Option.iter
      (fun p -> validate_writable ~path:p (Filename.dirname p))
      checkpoint;
    Option.iter (fun d -> validate_writable ~path:d d) obs.flight_dump;
    (* solver-backed subcommands get cooperative preemption: first
       signal stops at the next wave barrier, second one exits hard *)
    Option.iter (fun _ -> Preempt.install ()) jobs;
    Option.iter
      (fun threshold -> Monpos_obs.Sampler.configure ~threshold)
      obs.trace_sample;
    let recorder = Monpos_obs.Flightrec.install ?dir:obs.flight_dump () in
    let file_sink =
      match obs.trace with
      | None -> Obs_trace.null
      | Some path -> (
        try Obs_trace.open_file path
        with Sys_error msg -> Rerror.io_error ~path msg)
    in
    let sink =
      Obs_trace.fanout
        ([ file_sink; Monpos_obs.Flightrec.sink recorder ]
        @ if obs.progress then [ Monpos_obs.Progress.sink () ] else [])
    in
    let stop_ticker =
      match obs.stack_hz with
      | Some hz when hz > 0.0 -> start_stack_ticker sink hz
      | _ -> fun () -> ()
    in
    Fun.protect
      ~finally:(fun () ->
        stop_ticker ();
        Obs_trace.set_current Obs_trace.null;
        Obs_trace.close sink;
        Monpos_obs.Flightrec.uninstall ())
      (fun () ->
        Obs_trace.set_current sink;
        (* every traced run opens with its manifest, so offline tooling
           (analyze, diff) can join artifacts from the same run; the
           same manifest heads /statusz and every flight dump *)
        let ri =
          Monpos_obs.Runinfo.capture
            ?chaos_seed:(Monpos_resilience.Chaos.seed ())
            ?jobs ()
        in
        Monpos_obs.Runinfo.emit sink ri;
        Monpos_obs.Status.set_manifest (Monpos_obs.Runinfo.to_json ri);
        Monpos_obs.Flightrec.set_manifest recorder
          (Monpos_obs.Runinfo.to_fields ri);
        let r =
          try f () with
          | Rerror.Error e ->
            Format.eprintf "monitorctl: %s@." (Rerror.to_string e);
            Rerror.exit_code e
          | e ->
            (* the recorder holds the lead-up to whatever just blew
               up; snapshot it before the backtrace unwinds *)
            Monpos_obs.Flightrec.trigger ~reason:"uncaught_exception";
            raise e
        in
        (match obs.trace with
        | Some path ->
          Format.printf "trace: %d event(s) written to %s@."
            (Obs_trace.events_written file_sink)
            path
        | None -> ());
        if obs.metrics then
          print_string
            (Obs_metrics.render_table
               (Obs_metrics.snapshot Obs_metrics.default));
        Option.iter write_prom_snapshot obs.prom_out;
        r)
  with Rerror.Error e ->
    Format.eprintf "monitorctl: %s@." (Rerror.to_string e);
    Rerror.exit_code e

(* ------------------------------------------------------------------ *)
(* solver flags, shared by the MIP-backed subcommands                  *)

(* Evaluates to a tuner applied to whichever default option record the
   subcommand starts from, so sampling keeps its looser gap/time
   defaults while still honouring the flags. *)
let solver_term =
  let cold_arg =
    let doc =
      "Solve every branch-and-bound node with a cold primal simplex \
       instead of warm-starting the dual simplex from the parent \
       basis. Results are identical; the flag exists to measure the \
       warm-start speedup and to bisect numerical surprises."
    in
    Arg.(value & flag & info [ "cold-start" ] ~doc)
  in
  let no_presolve_arg =
    let doc = "Skip presolve bound tightening before branch and bound." in
    Arg.(value & flag & info [ "no-presolve" ] ~doc)
  in
  let time_limit_arg =
    let doc =
      "Wall-clock budget in seconds for the MIP search. This is a real \
       bound — the deadline is polled inside every node LP — and on \
       expiry the degradation ladder answers from a cheaper rung (exit \
       code 3) unless $(b,--strict) is set."
    in
    Arg.(value & opt (some float) None & info [ "time-limit" ] ~docv:"SECS" ~doc)
  in
  let jobs_arg =
    let doc =
      "Worker domains for the branch-and-bound search (default 1, or \
       $(b,MONPOS_JOBS) when set; 0 means one per CPU core). The \
       wave scheduler returns the same incumbent, objective, bound \
       and node count for every value of $(docv)."
    in
    Arg.(value & opt (some int) None & info [ "jobs"; "j" ] ~docv:"N" ~doc)
  in
  let checkpoint_arg =
    let doc =
      "Write crash-recovery checkpoints of the branch-and-bound state \
       to $(docv): atomic tmp-file + rename replaces, at wave barriers, \
       every $(b,--checkpoint-every) seconds and once more when the \
       solve stops at a limit or is preempted. Continue an interrupted \
       solve with $(b,monitorctl resume) $(docv) — the resumed result \
       is bit-identical to the uninterrupted one. The destination \
       directory is validated writable at startup (exit 2 otherwise)."
    in
    Arg.(
      value
      & opt (some string) None
      & info [ "checkpoint" ] ~docv:"FILE" ~doc)
  in
  let checkpoint_every_arg =
    let doc =
      "Minimum wall-clock seconds between periodic checkpoint writes \
       (default 60; 0 checkpoints at every wave barrier — crash \
       drills)."
    in
    Arg.(
      value
      & opt (some float) None
      & info [ "checkpoint-every" ] ~docv:"SECS" ~doc)
  in
  let make cold no_presolve time_limit jobs checkpoint checkpoint_every
      (base : Mip.options) =
    {
      base with
      Mip.warm_start = not cold;
      presolve = not no_presolve;
      time_limit = Option.value time_limit ~default:base.Mip.time_limit;
      jobs = Option.value jobs ~default:base.Mip.jobs;
      checkpoint =
        (match checkpoint with None -> base.Mip.checkpoint | c -> c);
      checkpoint_every =
        Option.value checkpoint_every ~default:base.Mip.checkpoint_every;
    }
  in
  Term.(
    const make $ cold_arg $ no_presolve_arg $ time_limit_arg
    $ jobs_arg $ checkpoint_arg $ checkpoint_every_arg)

let strict_arg =
  let doc =
    "Fail (with a typed error and exit code 2/3/4) instead of degrading: \
     the MIP-backed methods normally run through the resilience ladder \
     and fall back to LP rounding or the greedy cover on deadline or \
     numerical trouble; $(b,--strict) demands the first rung's answer \
     or nothing."
  in
  Arg.(value & flag & info [ "strict" ] ~doc)

(* Min-cost-flow kernel selector shared by the flow-backed paths
   (PPME* re-optimization, the MECF flow heuristic, the §5.4 loop). *)
let flow_kernel_arg =
  let doc =
    "Min-cost-flow kernel for the flow-based solves: $(b,ssp) \
     (successive shortest augmenting paths) or $(b,netsimplex) (the \
     warm-startable spanning-tree network simplex)."
  in
  let kernel_conv =
    Arg.enum [ ("ssp", Mincost.Ssp); ("netsimplex", Mincost.Net_simplex) ]
  in
  Arg.(
    value
    & opt (some kernel_conv) None
    & info [ "flow-kernel" ] ~docv:"KERNEL" ~doc)

(* Print how a ladder solve went and turn its outcome into (value,
   exit code): a degraded answer is still printed but exits 3 so
   scripts can tell a proven optimum from a best effort, and a
   preempted solve exits 5 — its answer flowed through the same
   incumbent + certified-gap rung, but the cause was a signal, not a
   budget. *)
let report_outcome name (o : 'a Resilient.outcome) =
  Format.printf "%s resilience: %a@." name Resilient.pp_outcome o;
  ( o.Resilient.value,
    if Preempt.requested () then 5
    else if Resilient.degraded o then 3
    else 0 )

(* ------------------------------------------------------------------ *)
(* shared arguments                                                    *)

let preset_conv =
  let parse = function
    | "pop10" -> Ok `Pop10
    | "pop15" -> Ok `Pop15
    | "pop29" -> Ok `Pop29
    | "pop80" -> Ok `Pop80
    | s -> Error (`Msg (Printf.sprintf "unknown preset %S (pop10|pop15|pop29|pop80)" s))
  in
  let print ppf p = Format.pp_print_string ppf (Pop.preset_name p) in
  Arg.conv (parse, print)

let preset_arg =
  let doc = "POP preset: pop10, pop15, pop29 or pop80 (paper instances)." in
  Arg.(value & opt preset_conv `Pop10 & info [ "preset"; "p" ] ~doc)

let seed_arg =
  let doc = "Random seed (topology and traffic are derived from it)." in
  Arg.(value & opt int 1 & info [ "seed"; "s" ] ~doc)

let coverage_arg =
  let doc = "Coverage target k in (0, 1]." in
  Arg.(value & opt float 0.9 & info [ "coverage"; "k" ] ~doc)

let sample_arg =
  let doc =
    "Use an embedded sample topology (backbone-11 or metro-7) instead \
     of a generated preset."
  in
  Arg.(value & opt (some string) None & info [ "sample" ] ~doc)

let topo_arg =
  let doc =
    "Load the topology from $(docv) (the node/link format of \
     Topo_file) instead of a generated preset. Parse errors name the \
     file, line and offending token, and exit 2."
  in
  Arg.(value & opt (some string) None & info [ "topo" ] ~docv:"FILE" ~doc)

let demands_arg =
  let doc =
    "Load the traffic matrix from $(docv) (one $(b,demand <src> <dst> \
     <volume>) per line, routed on shortest paths) instead of \
     generating one. Parse errors name the file, line and offending \
     token, and exit 2."
  in
  Arg.(value & opt (some string) None & info [ "demands" ] ~docv:"FILE" ~doc)

let ok_or_raise = function Ok v -> v | Error e -> raise (Rerror.Error e)

let load_pop preset seed ~topo ~sample =
  match (topo, sample) with
  | Some path, _ -> ok_or_raise (Topo_file.parse_file path)
  | None, Some name ->
    if not (List.mem_assoc name Topo_file.samples) then
      bad_input
        (Printf.sprintf "unknown sample %S (backbone-11|metro-7)" name);
    Topo_file.load_sample name
  | None, None -> Pop.make_preset preset ~seed

let load_instance ?sample ?topo ?demands preset seed =
  let pop = load_pop preset seed ~topo ~sample in
  let inst =
    match demands with
    | Some path -> ok_or_raise (Instance.load_demands pop path)
    | None -> Instance.of_pop pop ~seed:(seed * 131)
  in
  (pop, inst)

(* ------------------------------------------------------------------ *)
(* topology                                                            *)

let topology_cmd =
  let dot_arg =
    let doc = "Write a Graphviz rendering (loads as edge thickness)." in
    Arg.(value & opt (some string) None & info [ "dot" ] ~doc)
  in
  let run obs preset seed sample topo demands dot =
    with_obs obs @@ fun () ->
    let pop, inst = load_instance ?sample ?topo ?demands preset seed in
    Format.printf "%s (seed %d): %a@." pop.Pop.name seed Instance.pp_summary inst;
    Format.printf "routers: %d (backbone+access), endpoints: %d@."
      (Pop.num_routers pop)
      (List.length (Pop.endpoints pop));
    (match dot with
    | None -> ()
    | Some path ->
      let s =
        Monpos_graph.Dot.with_loads pop.Pop.graph ~loads:inst.Instance.loads
      in
      Out_channel.with_open_text path (fun oc -> output_string oc s);
      Format.printf "dot written to %s@." path);
    0
  in
  let doc = "Generate or load a POP topology + traffic matrix and summarize it." in
  Cmd.v
    (Cmd.info "topology" ~doc ~exits)
    Term.(
      const run $ obs_term $ preset_arg $ seed_arg $ sample_arg $ topo_arg
      $ demands_arg $ dot_arg)

(* ------------------------------------------------------------------ *)
(* passive                                                             *)

let passive_cmd =
  let method_arg =
    let doc =
      "Solver: greedy, static (load-order greedy), exact, mip-lp1, \
       mip-lp2, mecf or mecf-flow (min-cost-flow relaxation, honours \
       $(b,--flow-kernel))."
    in
    Arg.(value & opt string "exact" & info [ "method"; "m" ] ~doc)
  in
  let budget_arg =
    let doc = "Maximize coverage under a device budget instead of fixing k." in
    Arg.(value & opt (some int) None & info [ "budget" ] ~doc)
  in
  let installed_arg =
    let doc = "Comma-separated installed link ids (incremental placement)." in
    Arg.(value & opt (some string) None & info [ "installed" ] ~doc)
  in
  let dot_arg =
    let doc = "Write a Graphviz rendering with monitored links highlighted." in
    Arg.(value & opt (some string) None & info [ "dot" ] ~doc)
  in
  let waxman_arg =
    let doc =
      "Solve on a synthetic Waxman random topology with $(docv) nodes \
       (alpha 0.22, beta 0.35, derived from $(b,--seed)) instead of a \
       POP preset — searches large enough to interrupt, which is what \
       the crash/resume CI drill needs."
    in
    Arg.(value & opt (some int) None & info [ "waxman" ] ~docv:"N" ~doc)
  in
  let run obs tune strict preset seed sample topo demands k method_ budget
      installed dot flow_kernel waxman =
    let options = tune Mip.default_options in
    with_obs
      ~jobs:(Mip.resolved_jobs options)
      ?checkpoint:options.Mip.checkpoint obs
    @@ fun () ->
    let inst =
      match waxman with
      | Some nn ->
        let g = Synthetic.waxman ~n:nn ~alpha:0.22 ~beta:0.35 ~seed in
        let nodes = Array.init (Graph.num_nodes g) (fun i -> i) in
        Prng.shuffle (Prng.create 17) nodes;
        let count = min (max 12 (nn / 6)) (Array.length nodes) in
        let endpoints = Array.to_list (Array.sub nodes 0 count) in
        let matrix = Traffic.generate g ~endpoints ~seed:(seed * 131) in
        Instance.make g matrix
      | None -> snd (load_instance ?sample ?topo ?demands preset seed)
    in
    let parse_edges s =
      List.map
        (fun w ->
          match int_of_string_opt w with
          | Some e -> e
          | None -> bad_input (Printf.sprintf "bad link id %S in --installed" w))
        (String.split_on_char ',' s)
    in
    let ladder formulation =
      if strict then (Passive.solve_mip ~k ~formulation ~options inst, 0)
      else report_outcome "ppm" (Resilient.solve_ppm ~k ~formulation ~options inst)
    in
    let sol, code =
      match (budget, installed) with
      | Some b, _ -> (Passive.budgeted ~budget:b inst, 0)
      | None, Some links ->
        (Passive.incremental ~k ~installed:(parse_edges links) inst, 0)
      | None, None -> (
        match method_ with
        | "greedy" -> (Passive.greedy ~k inst, 0)
        | "static" -> (Passive.greedy_static ~k inst, 0)
        | "exact" -> (Passive.solve_exact ~k inst, 0)
        | "mip-lp1" -> ladder `Lp1
        | "mip-lp2" -> ladder `Lp2
        | "mecf" -> (Mecf.solve_mip ~k ~options inst, 0)
        | "mecf-flow" ->
          let algo = Option.value flow_kernel ~default:Mincost.Ssp in
          (Mecf.flow_heuristic ~k ~algo inst, 0)
        | other ->
          bad_input
            (Printf.sprintf
               "unknown method %S \
                (greedy|static|exact|mip-lp1|mip-lp2|mecf|mecf-flow)"
               other))
    in
    Format.printf "%a@." Passive.pp sol;
    print_string (Monpos.Report.passive_table inst sol);
    (match dot with
    | None -> ()
    | Some path ->
      Out_channel.with_open_text path (fun oc ->
          output_string oc (Monpos.Report.passive_dot inst sol));
      Format.printf "dot written to %s@." path);
    code
  in
  let doc = "Place passive monitoring taps (PPM(k), §4)." in
  Cmd.v
    (Cmd.info "passive" ~doc ~exits)
    Term.(
      const run $ obs_term $ solver_term $ strict_arg $ preset_arg $ seed_arg
      $ sample_arg $ topo_arg $ demands_arg $ coverage_arg $ method_arg
      $ budget_arg $ installed_arg $ dot_arg $ flow_kernel_arg $ waxman_arg)

(* ------------------------------------------------------------------ *)
(* sampling                                                            *)

let sampling_cmd =
  let install_cost_arg =
    let doc = "Installation cost per device." in
    Arg.(value & opt float 10.0 & info [ "install-cost" ] ~doc)
  in
  let scaled_arg =
    let doc = "Scale exploitation cost with link load (default uniform)." in
    Arg.(value & flag & info [ "load-scaled" ] ~doc)
  in
  let run obs tune strict preset seed k install_cost scaled flow_kernel =
    let options = tune Sampling.default_milp_options in
    with_obs
      ~jobs:(Mip.resolved_jobs options)
      ?checkpoint:options.Mip.checkpoint obs
    @@ fun () ->
    let _, inst = load_instance preset seed in
    let costs =
      if scaled then Sampling.load_scaled_costs inst ~install:install_cost ()
      else Sampling.uniform_costs ~install:install_cost ()
    in
    let pb = Sampling.make_problem ~k ~costs inst in
    let sol, code =
      if strict then (Sampling.solve_milp ~options pb, 0)
      else report_outcome "ppme" (Resilient.solve_ppme ~options pb)
    in
    (* with a flow kernel selected, re-tune rates on the fixed
       placement through the PPME* min-cost-flow formulation *)
    let sol =
      match flow_kernel with
      | None -> sol
      | Some algo ->
        let retuned =
          Sampling.reoptimize_flow ~algo pb ~installed:sol.Sampling.installed
        in
        Format.printf "rates re-tuned by %s flow kernel@."
          (match algo with
          | Mincost.Ssp -> "ssp"
          | Mincost.Net_simplex -> "netsimplex");
        retuned
    in
    Format.printf "%a@." Sampling.pp sol;
    List.iter
      (fun e ->
        Format.printf "  link %d %s rate %.3f@." e
          (Graph.edge_name inst.Instance.graph e)
          sol.Sampling.rates.(e))
      sol.Sampling.installed;
    code
  in
  let doc = "Place sampling devices and choose rates (PPME(h,k), §5)." in
  Cmd.v
    (Cmd.info "sampling" ~doc ~exits)
    Term.(
      const run $ obs_term $ solver_term $ strict_arg $ preset_arg $ seed_arg
      $ coverage_arg $ install_cost_arg $ scaled_arg $ flow_kernel_arg)

(* ------------------------------------------------------------------ *)
(* active                                                              *)

let active_cmd =
  let vb_arg =
    let doc = "Number of selectable beacons |V_B| (random router subset)." in
    Arg.(value & opt int 8 & info [ "vb" ] ~doc)
  in
  let method_arg =
    let doc = "Placement: thiran, greedy or ilp." in
    Arg.(value & opt string "ilp" & info [ "method"; "m" ] ~doc)
  in
  let run obs tune strict preset seed vb method_ =
    let options = tune Mip.default_options in
    with_obs
      ~jobs:(Mip.resolved_jobs options)
      ?checkpoint:options.Mip.checkpoint obs
    @@ fun () ->
    let pop = Pop.make_preset preset ~seed in
    let routers = Array.of_list (Pop.routers pop) in
    let rng = Prng.create ((seed * 104729) + vb) in
    Prng.shuffle rng routers;
    let candidates =
      List.sort compare
        (Array.to_list (Array.sub routers 0 (min vb (Array.length routers))))
    in
    let probes =
      Active.compute_probes ~targets:candidates pop.Pop.graph ~candidates
    in
    Format.printf "%s: |V_B| = %d, probe set size %d@." pop.Pop.name
      (List.length candidates) (List.length probes);
    if probes = [] then begin
      Format.printf "no probes (candidate pairs are disconnected?)@.";
      0
    end
    else begin
      let placement, code =
        match method_ with
        | "thiran" -> (Active.place_thiran probes ~candidates, 0)
        | "greedy" -> (Active.place_greedy probes ~candidates, 0)
        | "ilp" ->
          if strict then (Active.place_ilp ~options probes ~candidates, 0)
          else
            report_outcome "beacons"
              (Resilient.place_beacons ~options probes ~candidates)
        | other ->
          bad_input
            (Printf.sprintf "unknown method %S (thiran|greedy|ilp)" other)
      in
      Format.printf "%s places %d beacon(s):%s@." placement.Active.method_name
        (List.length placement.Active.beacons)
        (String.concat ""
           (List.map
              (fun b -> " " ^ Graph.label pop.Pop.graph b)
              placement.Active.beacons));
      Format.printf "placement valid: %b@."
        (Active.validate probes ~beacons:placement.Active.beacons ~candidates);
      code
    end
  in
  let doc = "Compute probes and place active beacons (§6)." in
  Cmd.v
    (Cmd.info "active" ~doc ~exits)
    Term.(
      const run $ obs_term $ solver_term $ strict_arg $ preset_arg $ seed_arg
      $ vb_arg $ method_arg)

(* ------------------------------------------------------------------ *)
(* dynamic                                                             *)

let dynamic_cmd =
  let steps_arg =
    Arg.(value & opt int 30 & info [ "steps" ] ~doc:"Drift steps to simulate.")
  in
  let sigma_arg =
    Arg.(value & opt float 0.25 & info [ "sigma" ] ~doc:"Drift strength.")
  in
  let threshold_arg =
    Arg.(
      value & opt float 0.85
      & info [ "threshold" ] ~doc:"Coverage tolerance T triggering PPME*.")
  in
  let jobs_arg =
    let doc =
      "Worker domains for the initial PPME placement MILP (the drift \
       loop itself re-optimizes through LP or flow kernels)."
    in
    Arg.(value & opt (some int) None & info [ "jobs"; "j" ] ~docv:"N" ~doc)
  in
  let run obs preset seed k steps sigma threshold flow_kernel jobs =
    let milp_options =
      {
        Mip.default_options with
        Mip.jobs = Option.value jobs ~default:Mip.default_options.Mip.jobs;
      }
    in
    with_obs
      ~jobs:(Mip.resolved_jobs milp_options)
      obs
    @@ fun () ->
    let kernel = Option.map (fun algo -> Sampling.Flow algo) flow_kernel in
    let points =
      Scenario.dynamic_run ~preset ~seed ~k ~threshold ~steps ~sigma ?kernel
        ?jobs ()
    in
    Table.print
      ~header:[ "step"; "before"; "after"; "reopts" ]
      (List.map
         (fun (p : Scenario.dynamic_point) ->
           [
             string_of_int p.Scenario.step;
             Table.float_cell ~decimals:3 p.Scenario.coverage_before;
             Table.float_cell ~decimals:3 p.Scenario.coverage_after;
             string_of_int p.Scenario.reoptimizations;
           ])
         points);
    0
  in
  let doc = "Simulate traffic drift with PPME* re-optimizations (§5.4)." in
  Cmd.v
    (Cmd.info "dynamic" ~doc ~exits)
    Term.(
      const run $ obs_term $ preset_arg $ seed_arg $ coverage_arg $ steps_arg
      $ sigma_arg $ threshold_arg $ flow_kernel_arg $ jobs_arg)

(* ------------------------------------------------------------------ *)
(* campaign                                                            *)

let campaign_cmd =
  let budget_arg =
    Arg.(value & opt int 3 & info [ "budget" ] ~doc:"Taps available today.")
  in
  let kpaths_arg =
    Arg.(value & opt int 4 & info [ "k-paths" ] ~doc:"Alternative routes per demand.")
  in
  let run obs preset seed budget k_paths =
    with_obs obs @@ fun () ->
    let _, inst = load_instance preset seed in
    let placed = Passive.budgeted ~budget inst in
    Format.printf "placement: %a@." Passive.pp placed;
    let c =
      Monpos.Campaign.reroute_for_monitors ~k_paths inst
        ~monitors:placed.Passive.monitors
    in
    Format.printf
      "campaign: coverage %.1f%% -> %.1f%% by re-routing %d demand(s)@."
      (100.0 *. c.Monpos.Campaign.coverage_before)
      (100.0 *. c.Monpos.Campaign.coverage_after)
      (List.length c.Monpos.Campaign.moves);
    0
  in
  let doc = "Re-route traffic to maximize monitorability (§7 extension)." in
  Cmd.v
    (Cmd.info "campaign" ~doc ~exits)
    Term.(const run $ obs_term $ preset_arg $ seed_arg $ budget_arg $ kpaths_arg)

(* ------------------------------------------------------------------ *)
(* sweep                                                               *)

let sweep_cmd =
  let figure_arg =
    let doc = "Which figure to regenerate: fig7, fig8, fig9, fig10, fig11." in
    Arg.(value & opt string "fig7" & info [ "figure"; "f" ] ~doc)
  in
  let seeds_arg =
    Arg.(value & opt int 10 & info [ "seeds" ] ~doc:"Number of seeds to average.")
  in
  let run obs figure nseeds =
    with_obs obs @@ fun () ->
    let seeds = List.init nseeds (fun i -> i + 1) in
    (match figure with
    | "fig7" | "fig8" ->
      let preset = if figure = "fig7" then `Pop10 else `Pop15 in
      let node_limit = if figure = "fig8" then Some 250_000 else None in
      let points = Scenario.passive_sweep ~preset ~seeds ?node_limit () in
      Table.print
        ~header:[ "k%"; "greedy(load)"; "greedy(adapt)"; "ILP" ]
        (List.map
           (fun (p : Scenario.passive_point) ->
             [
               string_of_int p.Scenario.k_percent;
               Table.float_cell ~decimals:1 p.Scenario.greedy_static_devices;
               Table.float_cell ~decimals:1 p.Scenario.greedy_devices;
               Table.float_cell ~decimals:1 p.Scenario.ilp_devices
               ^ (if p.Scenario.ilp_optimal then "" else " *");
             ])
           points)
    | "fig9" | "fig10" | "fig11" ->
      let preset =
        match figure with
        | "fig9" -> `Pop15
        | "fig10" -> `Pop29
        | _ -> `Pop80
      in
      let points = Scenario.active_sweep ~preset ~seeds () in
      Table.print
        ~header:[ "|V_B|"; "probes"; "thiran"; "greedy"; "ilp" ]
        (List.map
           (fun (p : Scenario.active_point) ->
             [
               string_of_int p.Scenario.vb_size;
               Table.float_cell ~decimals:1 p.Scenario.probes;
               Table.float_cell ~decimals:1 p.Scenario.thiran_beacons;
               Table.float_cell ~decimals:1 p.Scenario.greedy_beacons;
               Table.float_cell ~decimals:1 p.Scenario.ilp_beacons;
             ])
           points)
    | other ->
      bad_input
        (Printf.sprintf "unknown figure %S (fig7|fig8|fig9|fig10|fig11)" other));
    0
  in
  let doc = "Regenerate a paper figure's data series." in
  Cmd.v
    (Cmd.info "sweep" ~doc ~exits)
    Term.(const run $ obs_term $ figure_arg $ seeds_arg)

(* ------------------------------------------------------------------ *)
(* analyze                                                             *)

let analyze_cmd =
  let module Reader = Monpos_obs.Trace_reader in
  let module Profile = Monpos_obs.Profile in
  let module Converge = Monpos_obs.Converge in
  let module Json = Monpos_obs.Json in
  let file_arg =
    let doc =
      "JSONL trace file written by $(b,--trace), or a flight-recorder \
       dump written by $(b,--flight-dump) (same format)."
    in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"TRACE" ~doc)
  in
  let profile_arg =
    let doc = "Report the span-tree wall-time profile." in
    Arg.(value & flag & info [ "profile" ] ~doc)
  in
  let folded_arg =
    let doc =
      "Emit the wall-clock stack samples recorded by $(b,--stack-hz) \
       as folded stacks (one $(b,outer;inner count) line each), the \
       input format of flamegraph.pl, inferno and speedscope."
    in
    Arg.(value & flag & info [ "folded" ] ~doc)
  in
  let converge_arg =
    let doc =
      "Report branch-and-bound convergence (incumbent/bound trajectory, \
       gap, prune rate, warm-start outcomes) per solver, plus the run's \
       resilience events: deadline hits, degradation-ladder descents \
       and recoveries, chaos injections."
    in
    Arg.(value & flag & info [ "converge" ] ~doc)
  in
  let json_arg =
    let doc = "Emit the selected reports as one JSON object on stdout." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let run file profile converge folded json =
    (* no report selected: render profile + convergence. --folded on
       its own emits only the folded stacks, so the output pipes
       straight into flamegraph.pl. *)
    let profile, converge =
      if (not profile) && not converge && not folded then (true, true)
      else (profile, converge)
    in
    match Reader.read_file file with
    | exception Sys_error msg ->
      Format.eprintf "monitorctl: cannot read trace: %s@." msg;
      2
    | read ->
      let records = read.Reader.records in
      if json then begin
        let reports =
          [ ("events", Json.Int (List.length records));
            ("malformed_lines", Json.Int read.Reader.malformed);
            ("unknown_events", Json.Int read.Reader.unknown);
            ("truncated", Json.Bool read.Reader.truncated) ]
          @ (if profile then
               [ ("profile", Profile.to_json (Profile.of_records records)) ]
             else [])
          @ (if converge then
               [ ("converge", Converge.to_json (Converge.of_records records)) ]
             else [])
          @
          if folded then
            [
              ( "folded",
                Json.Obj
                  (List.map
                     (fun (stack, n) -> (stack, Json.Int n))
                     (Profile.folded_of_records records)) );
            ]
          else []
        in
        print_endline (Json.to_string (Json.Obj reports))
      end
      else begin
        if profile || converge then
          Format.printf "%s: %d event(s)%s%s%s@." file (List.length records)
            (if read.Reader.malformed > 0 then
               Printf.sprintf ", %d malformed line(s) skipped"
                 read.Reader.malformed
             else "")
            (if read.Reader.unknown > 0 then
               Printf.sprintf ", %d unknown event(s) ignored"
                 read.Reader.unknown
             else "")
            (if read.Reader.truncated then ", truncated final line dropped"
             else "");
        if profile then print_string (Profile.render (Profile.of_records records));
        if converge then
          print_string (Converge.render (Converge.of_records records));
        if folded then print_string (Profile.render_folded records)
      end;
      0
  in
  let doc =
    "Analyze a recorded solver trace or flight dump: wall-time \
     profile, branch-and-bound convergence report and/or folded \
     flamegraph stacks."
  in
  Cmd.v
    (Cmd.info "analyze" ~doc)
    Term.(
      const run $ file_arg $ profile_arg $ converge_arg $ folded_arg $ json_arg)

(* ------------------------------------------------------------------ *)
(* resume                                                              *)

let resume_cmd =
  let ckpt_arg =
    let doc =
      "Checkpoint file written by a $(b,--checkpoint) solve (any \
       MIP-backed subcommand)."
    in
    Arg.(
      required & pos 0 (some string) None & info [] ~docv:"CHECKPOINT" ~doc)
  in
  let jobs_arg =
    let doc =
      "Worker domains for the resumed search (results are identical \
       for every value, including across the interrupted/resumed \
       boundary)."
    in
    Arg.(value & opt (some int) None & info [ "jobs"; "j" ] ~docv:"N" ~doc)
  in
  let time_limit_arg =
    let doc =
      "Total wall-clock budget in seconds for the original solve: the \
       elapsed time recorded in the checkpoint is subtracted, so \
       repeated crash/resume cycles cannot stretch a bounded run."
    in
    Arg.(
      value & opt (some float) None & info [ "time-limit" ] ~docv:"SECS" ~doc)
  in
  let max_nodes_arg =
    let doc = "Branch-and-bound node budget for this run." in
    Arg.(value & opt (some int) None & info [ "max-nodes" ] ~docv:"N" ~doc)
  in
  let checkpoint_arg =
    let doc =
      "Where further checkpoints of the resumed run go (default: \
       overwrite $(b,CHECKPOINT) in place)."
    in
    Arg.(
      value
      & opt (some string) None
      & info [ "checkpoint" ] ~docv:"FILE" ~doc)
  in
  let checkpoint_every_arg =
    let doc =
      "Minimum seconds between periodic checkpoint writes (default \
       60; 0 writes at every wave barrier)."
    in
    Arg.(
      value
      & opt (some float) None
      & info [ "checkpoint-every" ] ~docv:"SECS" ~doc)
  in
  let run obs ckpt jobs time_limit max_nodes checkpoint checkpoint_every =
    let d = Mip.default_options in
    let options =
      {
        d with
        Mip.jobs = Option.value jobs ~default:d.Mip.jobs;
        time_limit = Option.value time_limit ~default:d.Mip.time_limit;
        max_nodes = Option.value max_nodes ~default:d.Mip.max_nodes;
        checkpoint;
        checkpoint_every =
          Option.value checkpoint_every ~default:d.Mip.checkpoint_every;
      }
    in
    with_obs
      ~jobs:(Mip.resolved_jobs options)
      ~checkpoint:(Option.value checkpoint ~default:ckpt)
      obs
    @@ fun () ->
    let r = Mip.resume ~options ckpt in
    let status_name =
      match r.Mip.status with
      | Mip.Optimal -> "optimal"
      | Mip.Feasible -> "feasible"
      | Mip.Infeasible -> "infeasible"
      | Mip.Unbounded -> "unbounded"
      | Mip.No_solution -> "no-solution"
    in
    (* one greppable line: the crash/resume CI drill (and any script
       wrapping a preemptible solve) parses these fields *)
    Format.printf
      "status=%s objective=%.6f bound=%.6f gap=%.6g nodes=%d preempted=%b@."
      status_name r.Mip.objective r.Mip.bound r.Mip.gap r.Mip.nodes
      r.Mip.preempted;
    (match r.Mip.solution with
    | Some x ->
      let nz = Array.fold_left (fun a v -> if v <> 0.0 then a + 1 else a) 0 x in
      Format.printf "solution: %d variable(s), %d nonzero@." (Array.length x)
        nz
    | None -> ());
    if r.Mip.preempted then 5
    else
      match r.Mip.status with
      | Mip.Optimal -> 0
      | Mip.Feasible | Mip.No_solution -> 3
      | Mip.Infeasible -> 2
      | Mip.Unbounded -> 4
  in
  let doc =
    "Resume an interrupted $(b,--checkpoint) solve. The search-shaping \
     options (branching, tolerances, warm start, wave size) come from \
     the checkpoint — only run-environment knobs can be set here — and \
     the resumed run reaches a result bit-identical to the \
     uninterrupted one, for any $(b,--jobs) on either side. Only \
     checkpoint format version 2 is read; an older file is a parse \
     error (exit 2)."
  in
  Cmd.v
    (Cmd.info "resume" ~doc ~exits)
    Term.(
      const run $ obs_term $ ckpt_arg $ jobs_arg $ time_limit_arg
      $ max_nodes_arg $ checkpoint_arg $ checkpoint_every_arg)

(* ------------------------------------------------------------------ *)
(* metrics-serve                                                       *)

let metrics_serve_cmd =
  let module Prom = Monpos_obs.Prom in
  let listen_arg =
    let doc =
      "Bind address, $(b,ADDR:PORT). ADDR may be an IP, a hostname or \
       empty/$(b,*) for any interface; port 0 picks an ephemeral port \
       (printed on startup)."
    in
    Arg.(
      value
      & opt string "127.0.0.1:9464"
      & info [ "listen" ] ~docv:"ADDR:PORT" ~doc)
  in
  let requests_arg =
    let doc =
      "Answer $(docv) requests and exit (smoke tests); default: serve \
       forever."
    in
    Arg.(value & opt (some int) None & info [ "requests" ] ~docv:"N" ~doc)
  in
  let no_warmup_arg =
    let doc =
      "Skip the warm-up PPM solve; the first scrapes then see an \
       almost-empty registry."
    in
    Arg.(value & flag & info [ "no-warmup" ] ~doc)
  in
  let run obs tune preset seed k listen requests no_warmup =
    let options = tune Mip.default_options in
    with_obs
      ~jobs:(Mip.resolved_jobs options)
      obs
    @@ fun () ->
    (* the warm-up solve runs on its own domain while the serve loop
       answers, so /healthz, /statusz and /metrics show the live
       watermarks of an in-flight (possibly multi-domain) solve
       instead of blocking until it lands *)
    let warmup =
      if no_warmup then None
      else begin
        let _, inst = load_instance preset seed in
        Some
          (Domain.spawn (fun () ->
               match Resilient.solve_ppm ~k ~options inst with
               | o -> Ok o.Resilient.rung
               | exception e -> Error (Printexc.to_string e)))
      end
    in
    let fd =
      try Prom.listen listen with
      | Invalid_argument msg -> bad_input msg
      | Unix.Unix_error (err, _, _) ->
        Rerror.io_error ~path:listen (Unix.error_message err)
    in
    Format.printf "serving /metrics, /healthz, /statusz on port %d%s@."
      (Prom.bound_port fd)
      (match requests with
      | Some n -> Printf.sprintf " for %d request(s)" n
      | None -> "");
    (* SIGINT/SIGTERM (handlers installed by with_obs) only set the
       preemption flag; the serve loop re-checks it after every
       request and every interrupted accept, finishes the in-flight
       response, and falls out here for an orderly exit 0: shutdown
       event, socket closed, warm-up solve joined (it polls the same
       flag, so a signal accelerates it too). *)
    let served =
      Prom.serve ?max_requests:requests ~should_stop:Preempt.requested
        ~registry:Obs_metrics.default fd
    in
    Obs_trace.server_shutdown (Obs_trace.current ()) ~served;
    (try Unix.close fd with Unix.Unix_error _ -> ());
    if Preempt.requested () then
      Format.printf "shutdown requested; served %d request(s)@." served;
    match Option.map Domain.join warmup with
    | None | Some (Ok _) -> 0
    | Some (Error msg) ->
      Format.eprintf "monitorctl: warm-up solve failed: %s@." msg;
      4
  in
  let doc =
    "Serve the metrics registry as a Prometheus scrape endpoint \
     (text exposition format 0.0.4, plain Unix sockets), with \
     /healthz liveness and /statusz live solver introspection."
  in
  Cmd.v
    (Cmd.info "metrics-serve" ~doc ~exits)
    Term.(
      const run $ obs_term $ solver_term $ preset_arg $ seed_arg $ coverage_arg
      $ listen_arg $ requests_arg $ no_warmup_arg)

(* ------------------------------------------------------------------ *)
(* diff                                                                *)

let diff_cmd =
  let module Reader = Monpos_obs.Trace_reader in
  let module Diff = Monpos_obs.Diff in
  let module Json = Monpos_obs.Json in
  let module Bench_check = Monpos_obs.Bench_check in
  let a_arg =
    let doc = "Baseline run: a $(b,--trace) JSONL file, or a bench report with $(b,--bench)." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"A" ~doc)
  in
  let b_arg =
    let doc = "Current run, same format as $(docv)." in
    Arg.(required & pos 1 (some string) None & info [] ~docv:"B" ~doc)
  in
  let bench_arg =
    let doc =
      "Compare two bench reports (BENCH_monpos.json, schema \
       monpos-bench/1) with the bench regression gate instead of two \
       traces."
    in
    Arg.(value & flag & info [ "bench" ] ~doc)
  in
  let read_trace path =
    match Reader.read_file path with
    | exception Sys_error msg -> Rerror.io_error ~path msg
    | r -> r
  in
  let read_json path =
    let text =
      try In_channel.with_open_text path In_channel.input_all
      with Sys_error msg -> Rerror.io_error ~path msg
    in
    match Json.parse text with
    | Ok j -> j
    | Error msg ->
      raise (Rerror.Error (Rerror.Parse_error { file = path; line = 0; msg }))
  in
  let run a b bench =
    try
      if bench then begin
        match
          Bench_check.compare_reports ~baseline:(read_json a)
            ~current:(read_json b)
        with
        | Error msg ->
          Format.eprintf "monitorctl: incomparable bench reports: %s@." msg;
          2
        | Ok report ->
          print_string (Bench_check.render report);
          if report.Bench_check.findings <> [] then 1 else 0
      end
      else begin
        let report = Diff.of_traces ~a:(read_trace a) ~b:(read_trace b) in
        print_string (Diff.render report);
        if report.Diff.regressions > 0 then 1 else 0
      end
    with Rerror.Error e ->
      Format.eprintf "monitorctl: %s@." (Rerror.to_string e);
      Rerror.exit_code e
  in
  let doc =
    "Diff two recorded runs (traces or bench reports): wall time, \
     pivots, nodes and allocation per span/solver, gated by the bench \
     regression thresholds."
  in
  let exits =
    Cmd.Exit.info 1
      ~doc:
        "when the comparison finds a gating regression (chaos-run \
         violations are reported but tolerated)."
    :: Cmd.Exit.info 2 ~doc:"on an unreadable or incomparable input file."
    :: Cmd.Exit.defaults
  in
  Cmd.v
    (Cmd.info "diff" ~doc ~exits)
    Term.(const run $ a_arg $ b_arg $ bench_arg)

(* ------------------------------------------------------------------ *)

let () =
  let doc =
    "optimal positioning of active and passive monitoring devices \
     (CoNEXT'05 reproduction)"
  in
  let info = Cmd.info "monitorctl" ~version:Monpos_obs.Runinfo.version ~doc in
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  exit
    (Cmd.eval'
       (Cmd.group ~default info
          [
            topology_cmd;
            passive_cmd;
            sampling_cmd;
            active_cmd;
            dynamic_cmd;
            campaign_cmd;
            sweep_cmd;
            resume_cmd;
            analyze_cmd;
            metrics_serve_cmd;
            diff_cmd;
          ]))
