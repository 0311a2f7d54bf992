(* Prometheus exposition: the labeled-series data model, label-value
   escaping, cumulative histogram buckets against the registry's own
   snapshot, the promtool-style lint, and a real scrape through the
   Unix-socket responder. *)

module Metrics = Monpos_obs.Metrics
module Prom = Monpos_obs.Prom

let lines s = String.split_on_char '\n' s

let contains_line text l = List.mem l (lines text)

let check_line text l =
  Alcotest.(check bool) (Printf.sprintf "exposition has %S" l) true
    (contains_line text l)

let check_lint text =
  match Prom.lint text with
  | Ok () -> ()
  | Error errs -> Alcotest.failf "lint rejects writer output: %s" (String.concat "; " errs)

(* ------------------------------------------------------------------ *)
(* labeled-series data model *)

let test_series_key () =
  Alcotest.(check string) "bare" "simplex.solves"
    (Metrics.series_key { Metrics.name = "simplex.solves"; labels = [] });
  Alcotest.(check string) "labeled"
    "simplex.iterations{phase=\"dual\",kernel=\"sparse_lu\"}"
    (Metrics.series_key
       {
         Metrics.name = "simplex.iterations";
         labels = [ ("phase", "dual"); ("kernel", "sparse_lu") ];
       });
  (* backslash, quote and newline in values escape like the exposition *)
  Alcotest.(check string) "escaped"
    "m{p=\"a\\\\b\\\"c\\nd\"}"
    (Metrics.series_key
       { Metrics.name = "m"; labels = [ ("p", "a\\b\"c\nd") ] })

let test_one_kind_per_name () =
  let t = Metrics.create () in
  let c = Metrics.counter ~labels:[ ("solver", "ppm") ] t "family.metric" in
  Metrics.incr c;
  (* same name, same kind, other label set: fine *)
  let c2 = Metrics.counter ~labels:[ ("solver", "ppme") ] t "family.metric" in
  Metrics.add c2 2;
  (* same name, different kind: rejected even on a fresh label set *)
  Alcotest.check_raises "kind clash"
    (Invalid_argument
       "Metrics: \"family.metric\" is already registered with another kind")
    (fun () ->
      ignore (Metrics.histogram ~labels:[ ("solver", "mecf") ] t "family.metric"));
  Alcotest.(check int) "family total" 3
    (Metrics.sum_counter (Metrics.snapshot t) "family.metric")

let test_find_by_labels () =
  let t = Metrics.create () in
  Metrics.add (Metrics.counter ~labels:[ ("a", "1") ] t "m") 7;
  let snap = Metrics.snapshot t in
  (match Metrics.find ~labels:[ ("a", "1") ] snap "m" with
  | Some (Metrics.Counter_value 7) -> ()
  | _ -> Alcotest.fail "labeled lookup failed");
  Alcotest.(check bool) "unlabeled series absent" true
    (Metrics.find snap "m" = None)

(* ------------------------------------------------------------------ *)
(* exposition *)

let test_escaping () =
  let t = Metrics.create () in
  Metrics.incr (Metrics.counter ~labels:[ ("path", "a\\b\"c\nd") ] t "weird.series");
  let text = Prom.to_prometheus (Metrics.snapshot t) in
  check_line text "monpos_weird_series_total{path=\"a\\\\b\\\"c\\nd\"} 1";
  check_lint text

let test_counter_and_gauge_lines () =
  let t = Metrics.create () in
  Metrics.add (Metrics.counter ~labels:[ ("solver", "ppm") ] t "mip.solves") 3;
  Metrics.set (Metrics.gauge t "lp.objective") 12.5;
  let text = Prom.to_prometheus (Metrics.snapshot t) in
  check_line text "# TYPE monpos_mip_solves_total counter";
  check_line text "monpos_mip_solves_total{solver=\"ppm\"} 3";
  check_line text "# TYPE monpos_lp_objective gauge";
  check_line text "monpos_lp_objective 12.5";
  check_lint text

let test_cumulative_buckets_match_snapshot () =
  let t = Metrics.create () in
  let h =
    Metrics.histogram
      ~buckets:[| 0.1; 1.0; 10.0 |]
      ~labels:[ ("span", "x") ]
      t "lat.seconds"
  in
  List.iter (Metrics.observe h) [ 0.05; 0.5; 0.6; 5.0; 50.0 ];
  let snap = Metrics.snapshot t in
  let upper, counts, count, sum =
    match Metrics.find ~labels:[ ("span", "x") ] snap "lat.seconds" with
    | Some (Metrics.Histogram_value { upper; counts; count; sum; _ }) ->
      (upper, counts, count, sum)
    | _ -> Alcotest.fail "histogram series missing"
  in
  let text = Prom.to_prometheus snap in
  check_lint text;
  (* per-bound cumulative counts must equal the snapshot's prefix sums *)
  let running = ref 0 in
  Array.iteri
    (fun i bound ->
      running := !running + counts.(i);
      check_line text
        (Printf.sprintf "monpos_lat_seconds_bucket{span=\"x\",le=\"%g\"} %d"
           bound !running))
    upper;
  check_line text
    (Printf.sprintf "monpos_lat_seconds_bucket{span=\"x\",le=\"+Inf\"} %d" count);
  check_line text (Printf.sprintf "monpos_lat_seconds_count{span=\"x\"} %d" count);
  check_line text (Printf.sprintf "monpos_lat_seconds_sum{span=\"x\"} %g" sum);
  (* cumulative counts never decrease *)
  let bucket_counts =
    List.filter_map
      (fun l ->
        if
          String.length l > 0
          && String.length l >= 26
          && String.sub l 0 26 = "monpos_lat_seconds_bucket{"
        then
          match String.rindex_opt l ' ' with
          | Some i ->
            int_of_string_opt
              (String.sub l (i + 1) (String.length l - i - 1))
          | None -> None
        else None)
      (lines text)
  in
  Alcotest.(check int) "one line per bound plus +Inf"
    (Array.length upper + 1)
    (List.length bucket_counts);
  ignore
    (List.fold_left
       (fun prev c ->
         Alcotest.(check bool) "buckets cumulative" true (c >= prev);
         c)
       0 bucket_counts)

let test_sanitize_name () =
  Alcotest.(check string) "dots" "monpos_simplex_iterations"
    (Prom.sanitize_name "simplex.iterations");
  Alcotest.(check string) "no namespace" "alloc_minor_words"
    (Prom.sanitize_name ~namespace:"" "alloc.minor_words");
  Alcotest.(check string) "leading digit" "_9lives"
    (Prom.sanitize_name ~namespace:"" "9lives")

(* ------------------------------------------------------------------ *)
(* lint *)

let expect_reject name text =
  match Prom.lint text with
  | Ok () -> Alcotest.failf "%s: lint accepted bad exposition" name
  | Error errs ->
    Alcotest.(check bool) (name ^ ": has errors") true (errs <> [])

let test_lint_rejects () =
  expect_reject "no trailing newline" "# TYPE m counter\nm 1";
  expect_reject "sample without TYPE" "m_total 1\n";
  expect_reject "bad value" "# TYPE m gauge\nm fast\n";
  expect_reject "duplicate series"
    "# TYPE m counter\nm_total 1\nm_total 2\n";
  expect_reject "bad metric name" "# TYPE m-x counter\nm-x 1\n";
  expect_reject "non-cumulative buckets"
    ("# TYPE h histogram\n" ^ "h_bucket{le=\"1\"} 5\n"
   ^ "h_bucket{le=\"+Inf\"} 3\n" ^ "h_sum 1\n" ^ "h_count 3\n")

let test_lint_accepts_empty_registry () =
  check_lint (Prom.to_prometheus (Metrics.snapshot (Metrics.create ())))

(* ------------------------------------------------------------------ *)
(* scrape endpoint *)

let read_all fd =
  let b = Buffer.create 1024 in
  let chunk = Bytes.create 4096 in
  let rec go () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> Buffer.contents b
    | n ->
      Buffer.add_subbytes b chunk 0 n;
      go ()
  in
  go ()

let http_get port path =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close sock with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let req = Printf.sprintf "GET %s HTTP/1.1\r\nHost: test\r\n\r\n" path in
      ignore (Unix.write_substring sock req 0 (String.length req));
      read_all sock)

(* locate the blank line separating headers from body *)
let header_body resp =
  let sep = "\r\n\r\n" in
  let n = String.length resp and m = String.length sep in
  let rec find i =
    if i + m > n then Alcotest.fail "no header/body separator"
    else if String.sub resp i m = sep then i
    else find (i + 1)
  in
  let i = find 0 in
  (String.sub resp 0 i, String.sub resp (i + m) (n - i - m))

let test_serve_scrape () =
  let t = Metrics.create () in
  Metrics.add (Metrics.counter ~labels:[ ("solver", "ppm") ] t "scrape.hits") 5;
  let fd = Prom.listen "127.0.0.1:0" in
  let port = Prom.bound_port fd in
  let server =
    Domain.spawn (fun () -> ignore (Prom.serve ~max_requests:2 ~registry:t fd : int))
  in
  let resp = http_get port "/metrics" in
  let missing = http_get port "/nope" in
  Domain.join server;
  Unix.close fd;
  let headers, body = header_body resp in
  Alcotest.(check bool) "200" true
    (String.length headers >= 15 && String.sub headers 0 15 = "HTTP/1.1 200 OK");
  Alcotest.(check bool) "content type" true
    (let ct = "text/plain; version=0.0.4; charset=utf-8" in
     let rec has i =
       i + String.length ct <= String.length headers
       && (String.sub headers i (String.length ct) = ct || has (i + 1))
     in
     has 0);
  check_lint body;
  check_line body "monpos_scrape_hits_total{solver=\"ppm\"} 5";
  Alcotest.(check bool) "404 elsewhere" true
    (String.length missing >= 12 && String.sub missing 0 12 = "HTTP/1.1 404")

let contains text needle = Astring.String.is_infix ~affix:needle text

let test_build_info_on_every_exposition () =
  (* the constant-gauge build-identity idiom: value 1, identity in the
     labels, present even on an empty registry, and lint-clean *)
  let text = Prom.to_prometheus (Metrics.snapshot (Metrics.create ())) in
  check_lint text;
  Alcotest.(check bool) "build_info with the release version" true
    (contains text
       (Printf.sprintf "monpos_build_info{version=\"%s\",git_rev=\""
          Monpos_obs.Runinfo.version));
  Alcotest.(check bool) "carries the compiler version" true
    (contains text (Printf.sprintf "ocaml=\"%s\"} 1" Sys.ocaml_version));
  (* follows the exposition's namespace *)
  let ns =
    Prom.to_prometheus ~namespace:"acme"
      (Metrics.snapshot (Metrics.create ()))
  in
  check_lint ns;
  Alcotest.(check bool) "namespaced build_info" true
    (contains ns "acme_build_info{version=")

let test_serve_health_and_status () =
  let t = Metrics.create () in
  Metrics.set (Metrics.gauge t "mip.incumbent") 7.0;
  let fd = Prom.listen "127.0.0.1:0" in
  let port = Prom.bound_port fd in
  let server =
    Domain.spawn (fun () -> ignore (Prom.serve ~max_requests:2 ~registry:t fd : int))
  in
  let health = http_get port "/healthz" in
  let status = http_get port "/statusz" in
  Domain.join server;
  Unix.close fd;
  let hh, hbody = header_body health in
  Alcotest.(check bool) "healthz is 200" true
    (String.length hh >= 15 && String.sub hh 0 15 = "HTTP/1.1 200 OK");
  Alcotest.(check string) "healthz body" "ok\n" hbody;
  let sh, sbody = header_body status in
  Alcotest.(check bool) "statusz is 200" true
    (String.length sh >= 15 && String.sub sh 0 15 = "HTTP/1.1 200 OK");
  Alcotest.(check bool) "statusz is json" true (contains sh "application/json");
  match Monpos_obs.Json.parse sbody with
  | Error msg -> Alcotest.failf "statusz does not parse: %s" msg
  | Ok (Monpos_obs.Json.Obj fields) ->
    List.iter
      (fun k ->
        Alcotest.(check bool) (Printf.sprintf "statusz has %S" k) true
          (List.mem_assoc k fields))
      [ "uptime_seconds"; "phase"; "solver"; "obs" ];
    (* watermark gauges of the scraped registry surface in the
       document *)
    Alcotest.(check bool) "statusz carries the incumbent watermark" true
      (contains sbody "\"incumbent\":7")
  | Ok _ -> Alcotest.fail "statusz must be a json object"

let test_serve_should_stop () =
  (* the graceful-shutdown hook: the loop polls should_stop before
     every accept, so a flag that flips after the first request ends
     the loop without any max_requests budget — this is how
     metrics-serve turns SIGINT/SIGTERM into a clean exit 0. The
     callback runs on the server domain; counting its own calls keeps
     the test deterministic (no cross-domain flag race). *)
  let t = Metrics.create () in
  let fd = Prom.listen "127.0.0.1:0" in
  let port = Prom.bound_port fd in
  let server =
    Domain.spawn (fun () ->
        let calls = ref 0 in
        let should_stop () =
          incr calls;
          !calls > 1
        in
        Prom.serve ~should_stop ~registry:t fd)
  in
  let health = http_get port "/healthz" in
  let served = Domain.join server in
  Unix.close fd;
  let hh, _ = header_body health in
  Alcotest.(check bool) "request before the stop answered" true
    (String.length hh >= 15 && String.sub hh 0 15 = "HTTP/1.1 200 OK");
  Alcotest.(check int) "served count returned at shutdown" 1 served

let test_listen_rejects_garbage () =
  Alcotest.(check bool) "no port" true
    (match Prom.listen "localhost" with
    | exception Invalid_argument _ -> true
    | fd ->
      Unix.close fd;
      false)

let suite =
  [
    Alcotest.test_case "series key rendering" `Quick test_series_key;
    Alcotest.test_case "one kind per family" `Quick test_one_kind_per_name;
    Alcotest.test_case "find by labels" `Quick test_find_by_labels;
    Alcotest.test_case "label value escaping" `Quick test_escaping;
    Alcotest.test_case "counter and gauge exposition" `Quick
      test_counter_and_gauge_lines;
    Alcotest.test_case "cumulative buckets match snapshot" `Quick
      test_cumulative_buckets_match_snapshot;
    Alcotest.test_case "name sanitization" `Quick test_sanitize_name;
    Alcotest.test_case "lint rejects malformed expositions" `Quick
      test_lint_rejects;
    Alcotest.test_case "lint accepts empty registry" `Quick
      test_lint_accepts_empty_registry;
    Alcotest.test_case "serve answers a scrape" `Quick test_serve_scrape;
    Alcotest.test_case "build_info heads every exposition" `Quick
      test_build_info_on_every_exposition;
    Alcotest.test_case "serve answers /healthz and /statusz" `Quick
      test_serve_health_and_status;
    Alcotest.test_case "serve stops when should_stop flips" `Quick
      test_serve_should_stop;
    Alcotest.test_case "listen rejects bad specs" `Quick
      test_listen_rejects_garbage;
  ]
