(* Read side of the observability layer: JSON parser round-trips, the
   typed trace reader's tolerance contract, profile / convergence
   reconstruction, histogram percentile estimation, the buffered file
   sink, the bench regression gate — and an end-to-end check that
   analyzing a real solver trace reproduces the solver's own
   accounting exactly. *)

module Metrics = Monpos_obs.Metrics
module Trace = Monpos_obs.Trace
module Span = Monpos_obs.Span
module Json = Monpos_obs.Json
module Reader = Monpos_obs.Trace_reader
module Profile = Monpos_obs.Profile
module Converge = Monpos_obs.Converge
module Bench_check = Monpos_obs.Bench_check
module Stats = Monpos_util.Stats
module Pop = Monpos_topo.Pop
module Instance = Monpos.Instance
module Passive = Monpos.Passive

let json : Json.t Alcotest.testable =
  Alcotest.testable (fun ppf v -> Format.pp_print_string ppf (Json.to_string v)) ( = )

let check_float = Alcotest.(check (float 1e-9))

(* exact: reconstructed sums must be the very same float additions *)
let check_exact = Alcotest.(check (float 0.0))

(* ------------------------------------------------------------------ *)
(* json parser *)

let roundtrip name v =
  match Json.parse (Json.to_string v) with
  | Ok v' -> Alcotest.check json name v v'
  | Error e -> Alcotest.fail (name ^ ": " ^ e)

let test_json_roundtrip () =
  roundtrip "escapes"
    (Json.String "quote \" backslash \\ newline \n tab \t ctrl \000\001\031");
  roundtrip "unicode passthrough" (Json.String "héllo 日本 ünïcode");
  roundtrip "nested"
    (Json.Obj
       [
         ("a", Json.List [ Json.Int 1; Json.Bool true; Json.Null ]);
         ("b", Json.Obj [ ("c", Json.String "d"); ("e", Json.List []) ]);
         ("empty", Json.Obj []);
       ]);
  roundtrip "floats"
    (Json.List [ Json.Float 0.1; Json.Float (-2.5e-3); Json.Float 1e100 ]);
  roundtrip "ints" (Json.List [ Json.Int 0; Json.Int (-42); Json.Int max_int ]);
  (* the writer renders non-finite floats as null; parsing the result
     yields Null, the documented normalization *)
  match Json.parse (Json.to_string (Json.List [ Json.Float nan; Json.Float infinity ])) with
  | Ok v -> Alcotest.check json "non-finite -> null" (Json.List [ Json.Null; Json.Null ]) v
  | Error e -> Alcotest.fail e

let test_json_unicode_escapes () =
  (match Json.parse {|"Aé日"|} with
  | Ok (Json.String s) -> Alcotest.(check string) "bmp escapes" "A\xc3\xa9\xe6\x97\xa5" s
  | _ -> Alcotest.fail "bmp escapes did not parse");
  match Json.parse {|"😀"|} with
  | Ok (Json.String s) ->
    Alcotest.(check string) "surrogate pair" "\xf0\x9f\x98\x80" s
  | _ -> Alcotest.fail "surrogate pair did not parse"

let test_json_parse_errors () =
  List.iter
    (fun s ->
      match Json.parse s with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail (Printf.sprintf "accepted %S" s))
    [ ""; "{"; "tru"; "1 2"; "[1,]"; {|{"a":}|}; {|"unterminated|}; "nan" ]

let test_json_parse_lines () =
  let rs = Json.parse_lines "{\"a\":1}\n\n  \n[1,2]\n{oops\n" in
  match rs with
  | [ Ok a; Ok b; Error _ ] ->
    Alcotest.check json "first" (Json.Obj [ ("a", Json.Int 1) ]) a;
    Alcotest.check json "second" (Json.List [ Json.Int 1; Json.Int 2 ]) b
  | _ -> Alcotest.fail "expected two Ok lines and one Error, blanks skipped"

(* ------------------------------------------------------------------ *)
(* trace reader *)

let trace_to_string f =
  let path = Filename.temp_file "monpos_reader" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let sink = Trace.open_file path in
      Fun.protect ~finally:(fun () -> Trace.close sink) (fun () -> f sink);
      In_channel.with_open_bin path In_channel.input_all)

let test_reader_typed_decode () =
  let s =
    trace_to_string (fun sink ->
        Trace.bb_node sink ~solver:"mip" ~node:1 ~depth:0 ~bound:1.5 ();
        Trace.bb_node sink ~solver:"mip" ~node:2 ~depth:1 ();
        Trace.incumbent sink ~solver:"mip" ~node:2 ~objective:4.0;
        Trace.bound_pruned sink ~solver:"mip" ~node:3 ~bound:nan ~incumbent:4.0;
        Trace.warm_start sink ~dual_feasible:true ~iterations:7 ~kernel:"sparse_lu"
          ~outcome:"reoptimal";
        Trace.simplex_phase sink ~phase:2 ~iterations:17 ~outcome:"optimal" ();
        Trace.greedy_pick sink ~pick:9 ~gain:0.25 ~covered:0.75;
        Trace.flow_augmentation sink ~amount:1.0 ~path_cost:3.0 ~routed:1.0 ();
        Trace.flow_solve sink ~algo:"netsimplex" ~pivots:42 ~warm:true
          ~status:"optimal";
        Trace.presolve_reduction sink ~rows_dropped:2 ~bounds_tightened:1
          ~fixed_vars:0)
  in
  let r = Reader.read_string s in
  Alcotest.(check int) "no malformed" 0 r.Reader.malformed;
  Alcotest.(check bool) "not truncated" false r.Reader.truncated;
  match List.map (fun rec_ -> rec_.Reader.event) r.Reader.records with
  | [
   Reader.Bb_node { solver = "mip"; node = 1; depth = 0; bound = Some 1.5; sampled_of = 1 };
   Reader.Bb_node { solver = "mip"; node = 2; depth = 1; bound = None; sampled_of = 1 };
   Reader.Incumbent { solver = "mip"; node = 2; objective = 4.0 };
   Reader.Bound_pruned { solver = "mip"; node = 3; bound = None; incumbent = Some 4.0 };
   Reader.Warm_start
     { dual_feasible = true; iterations = 7; kernel = "sparse_lu"; outcome = "reoptimal" };
   Reader.Simplex_phase { phase = 2; iterations = 17; outcome = "optimal"; sampled_of = 1 };
   Reader.Greedy_pick { pick = 9; gain = 0.25; covered = 0.75 };
   Reader.Flow_augmentation { amount = 1.0; path_cost = 3.0; routed = 1.0; sampled_of = 1 };
   Reader.Flow_solve
     { algo = "netsimplex"; pivots = 42; warm = true; status = "optimal" };
   Reader.Presolve_reduction { rows_dropped = 2; bounds_tightened = 1; fixed_vars = 0 };
  ] ->
    ()
  | evs ->
    Alcotest.fail
      ("decode mismatch: "
      ^ String.concat ", " (List.map Reader.event_name evs))

let test_reader_tolerance () =
  (* unknown event names, extra fields, missing required fields: the
     read succeeds and degrades to Unknown where it must *)
  let s =
    String.concat "\n"
      [
        {|{"ev":"custom_probe","ts":0.1,"payload":[1,2]}|};
        {|{"ev":"incumbent","ts":0.2,"solver":"mip","node":3,"objective":4.5,"extra":true}|};
        {|{"ev":"incumbent","ts":0.3,"solver":"mip"}|};
        {|{"ev":"bb_node","ts":0.4,"solver":"mip","node":"five","depth":0}|};
        {|{"ts":0.5,"noise":1}|};
      ]
  in
  let r = Reader.read_string s in
  Alcotest.(check int) "no-ev line is malformed" 1 r.Reader.malformed;
  Alcotest.(check bool) "not truncated" false r.Reader.truncated;
  match List.map (fun rec_ -> rec_.Reader.event) r.Reader.records with
  | [
   Reader.Unknown "custom_probe";
   Reader.Incumbent { objective = 4.5; _ };
   Reader.Unknown "incumbent";
   Reader.Unknown "bb_node";
  ] ->
    ()
  | evs ->
    Alcotest.fail
      ("tolerance mismatch: "
      ^ String.concat ", " (List.map Reader.event_name evs))

let test_reader_truncated_and_malformed () =
  let good = {|{"ev":"span_open","ts":0.0,"name":"a","depth":0}|} in
  (* garbage mid-file counts as malformed; a broken final line (an
     interrupted write) is flagged as truncation instead *)
  let r =
    Reader.read_string
      (good ^ "\nnot json at all\n" ^ good ^ "\n" ^ {|{"ev":"span_cl|})
  in
  Alcotest.(check int) "records kept" 2 (List.length r.Reader.records);
  Alcotest.(check int) "mid-file garbage" 1 r.Reader.malformed;
  Alcotest.(check bool) "final line truncated" true r.Reader.truncated;
  let clean = Reader.read_string (good ^ "\n" ^ good ^ "\n") in
  Alcotest.(check bool) "clean file not truncated" false clean.Reader.truncated

(* ------------------------------------------------------------------ *)
(* profile reconstruction *)

let span_records spans =
  List.map
    (fun (ts, ev) -> { Reader.ts; domain = 0; event = ev })
    spans

let test_profile_tree () =
  (* outer(5s) with two inner(1s) invocations: outer self = 3s *)
  let records =
    span_records
      [
        (0.0, Reader.Span_open { name = "outer"; depth = 0 });
        (0.1, Reader.Span_open { name = "inner"; depth = 1 });
        (1.1, Reader.Span_close { name = "inner"; depth = 1; seconds = 1.0; gc = None; sampled_of = 1 });
        (1.2, Reader.Span_open { name = "inner"; depth = 1 });
        (2.2, Reader.Span_close { name = "inner"; depth = 1; seconds = 1.0; gc = None; sampled_of = 1 });
        (5.0, Reader.Span_close { name = "outer"; depth = 0; seconds = 5.0; gc = None; sampled_of = 1 });
      ]
  in
  let p = Profile.of_records records in
  Alcotest.(check int) "no unmatched" 0 p.Profile.unmatched;
  check_exact "grand total" 5.0 (Profile.grand_total p);
  (match p.Profile.roots with
  | [ outer ] ->
    Alcotest.(check string) "root name" "outer" outer.Profile.name;
    Alcotest.(check int) "root calls" 1 outer.Profile.calls;
    check_exact "root total" 5.0 outer.Profile.total;
    check_exact "root self" 3.0 outer.Profile.self;
    (match outer.Profile.children with
    | [ inner ] ->
      Alcotest.(check int) "inner merged calls" 2 inner.Profile.calls;
      check_exact "inner total" 2.0 inner.Profile.total;
      check_exact "inner self" 2.0 inner.Profile.self
    | _ -> Alcotest.fail "expected one merged inner child")
  | _ -> Alcotest.fail "expected a single root");
  match Profile.totals p with
  | [ ("outer", (1, 5.0, 3.0)); ("inner", (2, 2.0, 2.0)) ] -> ()
  | _ -> Alcotest.fail "flat totals mismatch"

let test_profile_unmatched () =
  let p =
    Profile.of_records
      (span_records
         [
           (0.0, Reader.Span_open { name = "a"; depth = 0 });
           (0.1, Reader.Span_open { name = "b"; depth = 1 });
         ])
  in
  Alcotest.(check int) "two dangling opens" 2 p.Profile.unmatched;
  (* rendering a pathological profile must not raise *)
  Alcotest.(check bool) "renders" true (String.length (Profile.render p) >= 0)

(* ------------------------------------------------------------------ *)
(* convergence reconstruction *)

let test_converge () =
  let r event ts = { Reader.ts; domain = 0; event } in
  let records =
    [
      r (Reader.Bb_node { solver = "mip"; node = 1; depth = 0; bound = Some 10.0; sampled_of = 1 }) 0.1;
      r (Reader.Incumbent { solver = "mip"; node = 1; objective = 8.0 }) 0.2;
      r (Reader.Warm_start
           { dual_feasible = true; iterations = 5; kernel = "sparse_lu"; outcome = "reoptimal" })
        0.25;
      r (Reader.Bb_node { solver = "mip"; node = 2; depth = 1; bound = Some 9.0; sampled_of = 1 }) 0.3;
      r (Reader.Bound_pruned
           { solver = "mip"; node = 2; bound = Some 9.0; incumbent = Some 8.0 })
        0.4;
      r (Reader.Simplex_phase { phase = 2; iterations = 11; outcome = "optimal"; sampled_of = 1 }) 0.45;
      r (Reader.Bb_node { solver = "cover"; node = 1; depth = 0; bound = None; sampled_of = 1 }) 0.5;
      r (Reader.Incumbent { solver = "cover"; node = 1; objective = 3.0 }) 0.6;
    ]
  in
  let c = Converge.of_records records in
  Alcotest.(check int) "events" 8 c.Converge.events;
  match c.Converge.solvers with
  | [ mip; cover ] ->
    Alcotest.(check string) "first solver" "mip" mip.Converge.solver;
    Alcotest.(check int) "mip nodes" 2 mip.Converge.nodes;
    Alcotest.(check int) "mip prunes" 1 mip.Converge.prunes;
    Alcotest.(check int) "mip max depth" 1 mip.Converge.max_depth;
    (match mip.Converge.final_incumbent with
    | Some v -> check_float "final incumbent" 8.0 v
    | None -> Alcotest.fail "no final incumbent");
    (match mip.Converge.final_gap with
    | Some g -> check_float "gap |8-9|/8" 0.125 g
    | None -> Alcotest.fail "no final gap");
    (* solver-less events attach to the solver of the last bb_node *)
    Alcotest.(check (list (pair string int)))
      "warm starts on mip" [ ("reoptimal", 1) ] mip.Converge.warm_starts;
    Alcotest.(check int) "warm pivots" 5 mip.Converge.warm_dual_pivots;
    (match mip.Converge.simplex_phases with
    | [ (2, 1, 11) ] -> ()
    | _ -> Alcotest.fail "simplex phase totals mismatch");
    Alcotest.(check int) "cover nodes" 1 cover.Converge.nodes;
    Alcotest.(check (list (pair string int)))
      "no warm starts on cover" [] cover.Converge.warm_starts;
    (* rendering exercises the trajectory table *)
    Alcotest.(check bool) "renders" true (String.length (Converge.render c) > 0)
  | ss ->
    Alcotest.fail
      (Printf.sprintf "expected 2 solvers, got %d" (List.length ss))

(* ------------------------------------------------------------------ *)
(* percentile estimation *)

let test_percentile_buckets () =
  (* buckets (1;2;4;overflow], observations 0.5 1.0 1.5 3.0 100.0 *)
  let upper = [| 1.0; 2.0; 4.0 |] and counts = [| 2; 1; 1; 1 |] in
  let p q = Stats.percentile_buckets ~upper ~counts q in
  let check_some name expected = function
    | Some v -> check_float name expected v
    | None -> Alcotest.fail (name ^ " unexpectedly in overflow")
  in
  (* rank = q/100 * (n-1), linear interpolation inside the bucket *)
  check_some "p50" 1.0 (p 50.0);
  check_some "p90" 3.2 (p 90.0);
  check_some "p99" 3.92 (p 99.0);
  check_some "p0 at lower edge" 0.0 (p 0.0);
  Alcotest.(check (option (float 1e-9))) "empty" None
    (Stats.percentile_buckets ~upper ~counts:[| 0; 0; 0; 0 |] 50.0);
  (* everything past the last bound: the estimate is unknowable *)
  Alcotest.(check (option (float 1e-9))) "overflow" None
    (Stats.percentile_buckets ~upper ~counts:[| 0; 0; 0; 3 |] 50.0)

let test_metrics_percentile_rendering () =
  let r = Metrics.create () in
  let h = Metrics.histogram ~buckets:[| 1.0; 2.0; 4.0 |] r "test.hist" in
  List.iter (Metrics.observe h) [ 0.5; 1.0; 1.5; 3.0; 100.0 ];
  let ovf = Metrics.histogram ~buckets:[| 1.0; 2.0; 4.0 |] r "test.ovf" in
  List.iter (Metrics.observe ovf) [ 5.0; 6.0; 7.0 ];
  let table = Metrics.render_table (Metrics.snapshot r) in
  let has sub =
    let n = String.length sub and m = String.length table in
    let rec go i = i + n <= m && (String.sub table i n = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "p50 cell" true (has "p50=1 ");
  Alcotest.(check bool) "p90 cell" true (has "p90=3.2 ");
  Alcotest.(check bool) "p99 cell" true (has "p99=3.92");
  Alcotest.(check bool) "overflow reports the maximum" true (has "p50=7 ");
  (* json: overflow percentiles report the maximum too *)
  match Metrics.to_json (Metrics.snapshot r) with
  | Json.Obj kvs ->
    let member name k =
      match List.assoc name kvs with
      | Json.Obj fields -> List.assoc k fields
      | _ -> Alcotest.fail (name ^ " is not an object")
    in
    Alcotest.check json "hist p50" (Json.Float 1.0) (member "test.hist" "p50");
    Alcotest.check json "ovf p99 max" (Json.Float 7.0) (member "test.ovf" "p99")
  | _ -> Alcotest.fail "snapshot json is not an object"

(* a single 12.48 s sample lands in the (10, 30] bucket, whose lower
   edge is 10: every estimate must stay inside the observed range *)
let test_percentiles_clamped_to_range () =
  let r = Metrics.create () in
  Metrics.observe (Metrics.histogram r "test.single") 12.48;
  let table = Metrics.render_table (Metrics.snapshot r) in
  Alcotest.(check bool) "table p50 and p99" true
    (Astring.String.is_infix ~affix:"p50=12.48 p90=12.48 p99=12.48" table);
  match Metrics.to_json (Metrics.snapshot r) with
  | Json.Obj [ (_, Json.Obj fields) ] ->
    Alcotest.check json "json p50" (Json.Float 12.48) (List.assoc "p50" fields);
    Alcotest.check json "json p99" (Json.Float 12.48) (List.assoc "p99" fields)
  | _ -> Alcotest.fail "snapshot json is not a one-series object"

(* ------------------------------------------------------------------ *)
(* buffered file sink *)

let test_buffered_sink () =
  let path = Filename.temp_file "monpos_buf" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let sink = Trace.open_file path in
      for i = 1 to 10 do
        Trace.emit sink "tick" [ ("i", Json.Int i) ]
      done;
      (* below the flush threshold nothing has reached the file yet *)
      Alcotest.(check int) "buffered, file empty" 0
        (In_channel.with_open_bin path In_channel.length |> Int64.to_int);
      Alcotest.(check int) "events counted while buffered" 10
        (Trace.events_written sink);
      for i = 11 to 70 do
        Trace.emit sink "tick" [ ("i", Json.Int i) ]
      done;
      (* crossing the threshold flushed at least one batch *)
      Alcotest.(check bool) "flushed past threshold" true
        (In_channel.with_open_bin path In_channel.length > 0L);
      Trace.close sink;
      Alcotest.(check int) "exact count" 70 (Trace.events_written sink);
      let r = Reader.read_file path in
      Alcotest.(check int) "all events on disk after close" 70
        (List.length r.Reader.records);
      Alcotest.(check bool) "complete final line" false r.Reader.truncated)

(* ------------------------------------------------------------------ *)
(* bench regression gate *)

let bench_doc ?(mode = "default") ?chaos_seed phases =
  Json.Obj
    [
      ("schema", Json.String "monpos-bench/1");
      ("mode", Json.String mode);
      ( "chaos_seed",
        match chaos_seed with Some s -> Json.Int s | None -> Json.Null );
      ( "phases",
        Json.List
          (List.map
             (fun (name, seconds, extras) ->
               Json.Obj
                 [
                   ("name", Json.String name);
                   ("seconds", Json.Float seconds);
                   ("extras", Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) extras));
                 ])
             phases) );
    ]

let test_bench_check () =
  let baseline =
    bench_doc
      [
        ("warmstart", 1.0, [ ("pivots", 100.0); ("speedup", 2.0) ]);
        ("kernelscale", 2.0, [ ("devices", 6.0) ]);
      ]
  in
  (* identical reports pass *)
  (match Bench_check.compare_reports ~baseline ~current:baseline with
  | Ok r ->
    Alcotest.(check int) "self-compare count" 5 r.Bench_check.compared;
    Alcotest.(check int) "self-compare clean" 0 (List.length r.Bench_check.findings)
  | Error e -> Alcotest.fail e);
  (* per-class thresholds: a tolerable drift does not regress, a real
     one does, and a vanished metric always does *)
  let current =
    bench_doc
      [
        (* seconds 1.0 -> 1.4: within +50%+0.1s. pivots 100 -> 102:
           beyond the 1% exact tolerance. speedup 2.0 -> 0.9: below
           half the baseline. *)
        ("warmstart", 1.4, [ ("pivots", 102.0); ("speedup", 0.9) ]);
        ("kernelscale", 10.0, []);
      ]
  in
  (match Bench_check.compare_reports ~baseline ~current with
  | Ok r ->
    let keys =
      List.map (fun f -> (f.Bench_check.phase, f.Bench_check.key)) r.Bench_check.findings
    in
    Alcotest.(check (list (pair string string)))
      "findings"
      [
        ("warmstart", "extras.pivots");
        ("warmstart", "extras.speedup");
        ("kernelscale", "seconds");
        ("kernelscale", "extras.devices");
      ]
      keys;
    (match
       List.find_opt (fun f -> f.Bench_check.key = "extras.devices") r.Bench_check.findings
     with
    | Some f -> Alcotest.(check bool) "vanished metric" true (f.Bench_check.current = None)
    | None -> Alcotest.fail "missing-metric finding absent");
    Alcotest.(check bool) "render mentions REGRESSED" true
      (let s = Bench_check.render r in
       let n = String.length "REGRESSED" and m = String.length s in
       let rec go i = i + n <= m && (String.sub s i n = "REGRESSED" || go (i + 1)) in
       go 0)
  | Error e -> Alcotest.fail e);
  (* a phase the current run skipped is noted, not failed *)
  (match
     Bench_check.compare_reports ~baseline
       ~current:(bench_doc [ ("warmstart", 1.0, [ ("pivots", 100.0); ("speedup", 2.0) ]) ])
   with
  | Ok r ->
    Alcotest.(check (list string)) "missing phase" [ "kernelscale" ] r.Bench_check.missing_phases;
    Alcotest.(check int) "no findings" 0 (List.length r.Bench_check.findings)
  | Error e -> Alcotest.fail e);
  (* schema and mode guards are hard errors *)
  (match Bench_check.compare_reports ~baseline ~current:(Json.Obj [ ("bogus", Json.Int 1) ]) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "schemaless report accepted");
  (match Bench_check.compare_reports ~baseline ~current:(bench_doc ~mode:"full" []) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "cross-mode comparison accepted");
  (* gates read absolutely: a failed gate is a finding even against a
     baseline that failed too, and a null gate (nan, written as null)
     is listed as not evaluated, never passed *)
  let reparse phases =
    match Json.parse (Json.to_string (bench_doc phases)) with
    | Ok d -> d
    | Error e -> Alcotest.fail e
  in
  let gate v = [ ("overhead", 1.0, [ ("x_gate", v) ]) ] in
  let g = [ ("overhead", "extras.x_gate") ] in
  List.iter
    (fun (what, base, cur, findings, unevaluated) ->
      match Bench_check.compare_reports ~baseline:(reparse base) ~current:(reparse cur) with
      | Ok r ->
        let keys = List.map (fun f -> (f.Bench_check.phase, f.Bench_check.key)) in
        Alcotest.(check (list (pair string string))) (what ^ ": findings") findings
          (keys r.Bench_check.findings);
        Alcotest.(check (list (pair string string))) (what ^ ": not evaluated") unevaluated
          r.Bench_check.unevaluated;
        Alcotest.(check bool) (what ^ ": rendered") (unevaluated <> [])
          (Astring.String.is_infix ~affix:"not evaluated" (Bench_check.render r))
      | Error e -> Alcotest.fail e)
    [
      ("0 vs baseline 0", gate 0.0, gate 0.0, g, []);
      ("0 vs baseline 1", gate 1.0, gate 0.0, g, []);
      ("1 vs baseline 0", gate 0.0, gate 1.0, [], []);
      ("0, phase new to the baseline", [], gate 0.0, g, []);
      ("0, gate new to the phase", [ ("overhead", 1.0, []) ], gate 0.0, g, []);
      ("dropped gate", gate 1.0, [ ("overhead", 1.0, []) ], g, []);
      ("null vs baseline 1", gate 1.0, gate nan, [], g);
      ("null vs null baseline", gate nan, gate nan, [], g);
    ];
  (* the micro phase's counters follow how many runs Bechamel fits in
     its time quota: a drift there is compared for coverage but never
     regresses, while the same drift in another phase does, and a
     micro counter that vanished is still missing *)
  let counters_doc phases =
    Json.Obj
      [
        ("schema", Json.String "monpos-bench/1");
        ("mode", Json.String "default");
        ( "phases",
          Json.List
            (List.map
               (fun (name, kvs) ->
                 Json.Obj
                   [
                     ("name", Json.String name);
                     ("seconds", Json.Float 1.0);
                     ( "metrics",
                       Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) kvs) );
                   ])
               phases) );
      ]
  in
  (match
     Bench_check.compare_reports
       ~baseline:
         (counters_doc
            [
              ("micro", [ ("greedy.picks", 4266.0); ("cover.nodes", 11625.0) ]);
              ("fig8", [ ("greedy.picks", 4266.0) ]);
            ])
       ~current:
         (counters_doc
            [ ("micro", [ ("greedy.picks", 2620.0) ]); ("fig8", [ ("greedy.picks", 2620.0) ]) ])
   with
  | Ok r ->
    Alcotest.(check (list (pair string string)))
      "micro counters: coverage only"
      [ ("micro", "metrics.cover.nodes"); ("fig8", "metrics.greedy.picks") ]
      (List.map (fun f -> (f.Bench_check.phase, f.Bench_check.key)) r.Bench_check.findings)
  | Error e -> Alcotest.fail e);
  (* a chaotic current run: violations are reported but tolerated *)
  let chaotic =
    bench_doc ~chaos_seed:7
      [
        ("warmstart", 1.4, [ ("pivots", 150.0); ("speedup", 2.0) ]);
        ("kernelscale", 2.0, [ ("devices", 7.0) ]);
      ]
  in
  match Bench_check.compare_reports ~baseline ~current:chaotic with
  | Ok r ->
    Alcotest.(check int) "chaos: nothing gates" 0 (List.length r.Bench_check.findings);
    Alcotest.(check (list (pair string string)))
      "chaos: drifts tolerated"
      [ ("warmstart", "extras.pivots"); ("kernelscale", "extras.devices") ]
      (List.map (fun f -> (f.Bench_check.phase, f.Bench_check.key)) r.Bench_check.tolerated);
    Alcotest.(check (option int)) "chaos seed surfaced" (Some 7) r.Bench_check.chaos_seed;
    Alcotest.(check bool) "render mentions TOLERATED" true
      (Astring.String.is_infix ~affix:"TOLERATED" (Bench_check.render r))
  | Error e -> Alcotest.fail e

(* ------------------------------------------------------------------ *)
(* end to end: a real solve, traced, then analyzed — the analyzers
   must reproduce the solver's own accounting exactly *)

let test_analyze_roundtrip_pop10 () =
  Metrics.reset Metrics.default;
  let pop = Pop.make_preset `Pop10 ~seed:1 in
  let inst = Instance.of_pop pop ~seed:131 in
  let path = Filename.temp_file "monpos_e2e" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let sol = ref None in
      let sink = Trace.open_file path in
      Fun.protect
        ~finally:(fun () -> Trace.close sink)
        (fun () ->
          Trace.with_current sink (fun () ->
              sol := Some (Passive.solve_mip ~k:0.9 inst)));
      let sol = Option.get !sol in
      let snap = Metrics.snapshot Metrics.default in
      let counter name =
        match Metrics.find snap name with
        | Some (Metrics.Counter_value n) -> n
        | _ -> Alcotest.fail (name ^ " counter missing")
      in
      let r = Reader.read_file path in
      Alcotest.(check int) "clean trace" 0 r.Reader.malformed;
      Alcotest.(check bool) "complete trace" false r.Reader.truncated;
      (* convergence: node count and final incumbent match the solver *)
      let c = Converge.of_records r.Reader.records in
      let mip =
        match List.find_opt (fun s -> s.Converge.solver = "mip") c.Converge.solvers with
        | Some s -> s
        | None -> Alcotest.fail "no mip solver in trace"
      in
      Alcotest.(check int) "bb_node events = mip.nodes counter"
        (counter "mip.nodes") mip.Converge.nodes;
      (match mip.Converge.final_incumbent with
      | Some v -> check_float "final incumbent = device count" (float_of_int sol.Passive.count) v
      | None -> Alcotest.fail "no incumbent in trace");
      (* profile: per-name totals equal the span.seconds{span=name}
         histogram sums bit for bit (same additions in the same order) *)
      let p = Profile.of_records r.Reader.records in
      Alcotest.(check int) "all spans paired" 0 p.Profile.unmatched;
      let totals = Profile.totals p in
      Alcotest.(check bool) "spans present" true (totals <> []);
      List.iter
        (fun (name, (calls, total_s, _self)) ->
          match Metrics.find ~labels:[ ("span", name) ] snap "span.seconds" with
          | Some (Metrics.Histogram_value { count; sum; _ }) ->
            Alcotest.(check int) (name ^ " calls") count calls;
            check_exact (name ^ " seconds") sum total_s
          | _ -> Alcotest.fail ("span.seconds{" ^ name ^ "} histogram missing"))
        totals)

(* ------------------------------------------------------------------ *)
(* run manifests *)

let test_run_info_roundtrip () =
  let module Runinfo = Monpos_obs.Runinfo in
  let manifest =
    {
      Runinfo.run_id = "run-test-1";
      git_rev = Some "abc123";
      ocaml_version = "5.1.1";
      hostname = "boxen";
      chaos_seed = Some 42;
      jobs = Some 4;
      scheduler = Some "wave";
      argv = [ "monitorctl"; "passive"; "--trace"; "t.jsonl" ];
    }
  in
  let s = trace_to_string (fun sink -> Runinfo.emit sink manifest) in
  match (Reader.read_string s).Reader.records with
  | [ { Reader.event = Reader.Run_info r; _ } ] ->
    Alcotest.(check string) "run_id" "run-test-1" r.run_id;
    Alcotest.(check (option string)) "git_rev" (Some "abc123") r.git_rev;
    Alcotest.(check (option string)) "ocaml" (Some "5.1.1") r.ocaml_version;
    Alcotest.(check (option string)) "hostname" (Some "boxen") r.hostname;
    Alcotest.(check (option int)) "chaos_seed" (Some 42) r.chaos_seed;
    Alcotest.(check (list string)) "argv" manifest.Runinfo.argv r.argv
  | evs ->
    Alcotest.failf "expected one run_info, got %d record(s)" (List.length evs)

let test_run_info_capture_defaults () =
  let module Runinfo = Monpos_obs.Runinfo in
  let m = Runinfo.capture () in
  Alcotest.(check string) "ocaml version" Sys.ocaml_version m.Runinfo.ocaml_version;
  Alcotest.(check bool) "run id non-empty" true (m.Runinfo.run_id <> "");
  Alcotest.(check (option int)) "no chaos seed" None m.Runinfo.chaos_seed;
  let m2 = Runinfo.capture () in
  Alcotest.(check bool) "ids unique per capture" true
    (m.Runinfo.run_id <> m2.Runinfo.run_id)

(* ------------------------------------------------------------------ *)
(* GC accounting on spans *)

let test_span_gc_deltas () =
  let s =
    trace_to_string (fun sink ->
        Trace.with_current sink (fun () ->
            Span.run "outer" (fun () ->
                let junk =
                  Span.run "inner" (fun () -> Array.init 50_000 string_of_int)
                in
                ignore (Sys.opaque_identity junk))))
  in
  let closes =
    List.filter_map
      (fun r ->
        match r.Reader.event with
        | Reader.Span_close { name; gc; _ } -> Some (name, gc)
        | _ -> None)
      (Reader.read_string s).Reader.records
  in
  let gc_of name =
    match List.assoc_opt name closes with
    | Some (Some gc) -> gc
    | Some None -> Alcotest.failf "span %s closed without gc fields" name
    | None -> Alcotest.failf "span %s has no close event" name
  in
  let inner = gc_of "inner" and outer = gc_of "outer" in
  let non_negative name (gc : Trace.gc_delta) =
    Alcotest.(check bool) (name ^ " minor >= 0") true (gc.Trace.minor_words >= 0.0);
    Alcotest.(check bool) (name ^ " major >= 0") true (gc.Trace.major_words >= 0.0);
    Alcotest.(check bool) (name ^ " promoted >= 0") true
      (gc.Trace.promoted_words >= 0.0);
    Alcotest.(check bool) (name ^ " majors >= 0") true
      (gc.Trace.major_collections >= 0);
    Alcotest.(check bool) (name ^ " top heap >= 0") true
      (gc.Trace.top_heap_words >= 0)
  in
  non_negative "inner" inner;
  non_negative "outer" outer;
  (* the deltas are differences of monotone GC counters, so an
     enclosing span dominates its children *)
  Alcotest.(check bool) "inner allocated something" true
    (inner.Trace.minor_words +. inner.Trace.major_words > 0.0);
  Alcotest.(check bool) "outer minor >= inner minor" true
    (outer.Trace.minor_words >= inner.Trace.minor_words);
  Alcotest.(check bool) "outer major >= inner major" true
    (outer.Trace.major_words >= inner.Trace.major_words);
  (* and the profile surfaces them as per-span allocation totals *)
  let p = Profile.of_records (Reader.read_string s).Reader.records in
  let alloc = Profile.alloc_totals p in
  Alcotest.(check bool) "profile reports outer alloc" true
    (match List.assoc_opt "outer" alloc with
    | Some w -> w > 0.0
    | None -> false)

let suite =
  [
    Alcotest.test_case "json round trip" `Quick test_json_roundtrip;
    Alcotest.test_case "json unicode escapes" `Quick test_json_unicode_escapes;
    Alcotest.test_case "json parse errors" `Quick test_json_parse_errors;
    Alcotest.test_case "json parse lines" `Quick test_json_parse_lines;
    Alcotest.test_case "reader typed decode" `Quick test_reader_typed_decode;
    Alcotest.test_case "reader skip-unknown tolerance" `Quick test_reader_tolerance;
    Alcotest.test_case "reader truncated and malformed lines" `Quick
      test_reader_truncated_and_malformed;
    Alcotest.test_case "profile span tree" `Quick test_profile_tree;
    Alcotest.test_case "profile unmatched spans" `Quick test_profile_unmatched;
    Alcotest.test_case "convergence reconstruction" `Quick test_converge;
    Alcotest.test_case "bucket percentiles" `Quick test_percentile_buckets;
    Alcotest.test_case "metrics percentile rendering" `Quick
      test_metrics_percentile_rendering;
    Alcotest.test_case "percentiles clamped to observed range" `Quick
      test_percentiles_clamped_to_range;
    Alcotest.test_case "buffered file sink" `Quick test_buffered_sink;
    Alcotest.test_case "bench regression gate" `Quick test_bench_check;
    Alcotest.test_case "analyze round trip on pop10" `Quick
      test_analyze_roundtrip_pop10;
    Alcotest.test_case "run_info round trip" `Quick test_run_info_roundtrip;
    Alcotest.test_case "run_info capture defaults" `Quick
      test_run_info_capture_defaults;
    Alcotest.test_case "span gc deltas" `Quick test_span_gc_deltas;
  ]
