(* Prometheus text exposition (format 0.0.4) over a Metrics snapshot,
   plus a promtool-style line lint and a dependency-free scrape
   responder on raw Unix sockets. *)

(* ------------------------------------------------------------------ *)
(* naming *)

(* Registry names use dots ("simplex.iterations"); Prometheus metric
   names allow [a-zA-Z0-9_:]. Dots and anything else invalid map to
   '_', and everything is namespaced under "monpos_". *)
let sanitize_name ?(namespace = "monpos") name =
  let b = Buffer.create (String.length name + String.length namespace + 1) in
  if namespace <> "" then begin
    Buffer.add_string b namespace;
    Buffer.add_char b '_'
  end;
  String.iteri
    (fun i c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | ':' | '_' -> Buffer.add_char b c
      | '0' .. '9' ->
        if i = 0 && Buffer.length b = 0 then Buffer.add_char b '_';
        Buffer.add_char b c
      | _ -> Buffer.add_char b '_')
    name;
  Buffer.contents b

let escape_help b s =
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s

let escape_label_value b s =
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string b "\\\\"
      | '"' -> Buffer.add_string b "\\\""
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s

(* shortest decimal that round-trips; Prometheus spec spellings for
   the non-finite values *)
let add_float b v =
  if Float.is_nan v then Buffer.add_string b "NaN"
  else if v = Float.infinity then Buffer.add_string b "+Inf"
  else if v = Float.neg_infinity then Buffer.add_string b "-Inf"
  else
    let s15 = Printf.sprintf "%.15g" v in
    if float_of_string s15 = v then Buffer.add_string b s15
    else Buffer.add_string b (Printf.sprintf "%.17g" v)

let add_labels b labels =
  match labels with
  | [] -> ()
  | _ ->
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char b ',';
        Buffer.add_string b k;
        Buffer.add_string b "=\"";
        escape_label_value b v;
        Buffer.add_char b '"')
      labels;
    Buffer.add_char b '}'

let add_sample b name labels value =
  Buffer.add_string b name;
  add_labels b labels;
  Buffer.add_char b ' ';
  add_float b value;
  Buffer.add_char b '\n'

(* ------------------------------------------------------------------ *)
(* exposition *)

type family = {
  base : string; (* registry name, pre-sanitization *)
  kind : [ `Counter | `Gauge | `Histogram ];
  mutable series : (Metrics.labels * Metrics.entry) list; (* reversed *)
}

(* Constant build-identity gauge, the Prometheus idiom for joining
   series to the code revision that produced them (value always 1, the
   identity lives in the labels). The git revision forks a process to
   detect, so cache it for the lifetime of the exporter. *)
let build_rev = lazy (Option.value (Runinfo.detect_git_rev ()) ~default:"unknown")

let add_build_info ?namespace b =
  let name = sanitize_name ?namespace "build_info" in
  Buffer.add_string b "# HELP ";
  Buffer.add_string b name;
  Buffer.add_string b " build identity of the exposing process\n";
  Buffer.add_string b "# TYPE ";
  Buffer.add_string b name;
  Buffer.add_string b " gauge\n";
  add_sample b name
    [
      ("version", Runinfo.version);
      ("git_rev", Lazy.force build_rev);
      ("ocaml", Sys.ocaml_version);
    ]
    1.0

let to_prometheus ?namespace snap =
  (* group by metric name, preserving first-seen order *)
  let families = ref [] in
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun ({ Metrics.name; labels }, entry) ->
      let fam =
        match Hashtbl.find_opt tbl name with
        | Some f -> f
        | None ->
          let kind =
            match entry with
            | Metrics.Counter_value _ -> `Counter
            | Metrics.Gauge_value _ -> `Gauge
            | Metrics.Histogram_value _ -> `Histogram
          in
          let f = { base = name; kind; series = [] } in
          Hashtbl.add tbl name f;
          families := f :: !families;
          f
      in
      fam.series <- (labels, entry) :: fam.series)
    snap;
  let b = Buffer.create 4096 in
  add_build_info ?namespace b;
  List.iter
    (fun fam ->
      let exposed =
        let n = sanitize_name ?namespace fam.base in
        match fam.kind with `Counter -> n ^ "_total" | _ -> n
      in
      Buffer.add_string b "# HELP ";
      Buffer.add_string b exposed;
      Buffer.add_char b ' ';
      escape_help b ("monpos registry metric " ^ fam.base);
      Buffer.add_char b '\n';
      Buffer.add_string b "# TYPE ";
      Buffer.add_string b exposed;
      (match fam.kind with
      | `Counter -> Buffer.add_string b " counter\n"
      | `Gauge -> Buffer.add_string b " gauge\n"
      | `Histogram -> Buffer.add_string b " histogram\n");
      List.iter
        (fun (labels, entry) ->
          match entry with
          | Metrics.Counter_value c ->
            add_sample b exposed labels (float_of_int c)
          | Metrics.Gauge_value g -> add_sample b exposed labels g
          | Metrics.Histogram_value { upper; counts; count; sum; _ } ->
            (* buckets are cumulative in the exposition even though the
               registry stores them disjoint *)
            let cum = ref 0 in
            Array.iteri
              (fun i bound ->
                cum := !cum + counts.(i);
                let le = Buffer.create 24 in
                add_float le bound;
                add_sample b (exposed ^ "_bucket")
                  (labels @ [ ("le", Buffer.contents le) ])
                  (float_of_int !cum))
              upper;
            add_sample b (exposed ^ "_bucket")
              (labels @ [ ("le", "+Inf") ])
              (float_of_int count);
            add_sample b (exposed ^ "_sum") labels sum;
            add_sample b (exposed ^ "_count") labels (float_of_int count))
        (List.rev fam.series))
    (List.rev !families);
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* lint *)

let is_name_start = function
  | 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> true
  | _ -> false

let is_name_char = function
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> true
  | _ -> false

let is_label_start = function 'a' .. 'z' | 'A' .. 'Z' | '_' -> true | _ -> false

let is_label_char = function
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true
  | _ -> false

(* A small promtool-style checker for the text format: every sample
   line must parse (valid metric name, well-formed label set with only
   backslash/quote/newline escapes, a float value), every sample's
   family must have a preceding TYPE, histogram buckets must be
   cumulative, and no series may repeat. Returns the list of
   complaints, line-numbered. *)
let lint text =
  let errors = ref [] in
  let err line fmt =
    Printf.ksprintf (fun m -> errors := Printf.sprintf "line %d: %s" line m :: !errors) fmt
  in
  let typed = Hashtbl.create 16 in (* family -> kind string *)
  let seen_series = Hashtbl.create 64 in
  let strip_suffix name =
    let drop suffix =
      if Filename.check_suffix name suffix then
        Some (Filename.chop_suffix name suffix)
      else None
    in
    match drop "_bucket" with
    | Some base when Hashtbl.find_opt typed base = Some "histogram" -> base
    | _ -> (
      match drop "_sum" with
      | Some base when Hashtbl.find_opt typed base = Some "histogram" -> base
      | _ -> (
        match drop "_count" with
        | Some base when Hashtbl.find_opt typed base = Some "histogram" -> base
        | _ -> name))
  in
  let parse_sample lineno line =
    let n = String.length line in
    let pos = ref 0 in
    let fail fmt = Printf.ksprintf (fun m -> err lineno "%s" m; raise Exit) fmt in
    if n = 0 || not (is_name_start line.[0]) then fail "bad metric name start";
    while !pos < n && is_name_char line.[!pos] do incr pos done;
    let name = String.sub line 0 !pos in
    let labels = Buffer.create 32 in
    if !pos < n && line.[!pos] = '{' then begin
      Buffer.add_string labels "{";
      incr pos;
      let rec label_pair first =
        if !pos >= n then fail "unterminated label set";
        if line.[!pos] = '}' then incr pos
        else begin
          if not first then
            if line.[!pos] = ',' then incr pos else fail "expected , in labels";
          if !pos >= n || not (is_label_start line.[!pos]) then
            fail "bad label name";
          let s = !pos in
          while !pos < n && is_label_char line.[!pos] do incr pos done;
          Buffer.add_string labels (String.sub line s (!pos - s));
          if !pos >= n || line.[!pos] <> '=' then fail "expected = after label";
          incr pos;
          if !pos >= n || line.[!pos] <> '"' then fail "expected quoted value";
          incr pos;
          Buffer.add_char labels '=';
          let rec value () =
            if !pos >= n then fail "unterminated label value";
            match line.[!pos] with
            | '"' -> incr pos
            | '\\' ->
              incr pos;
              if !pos >= n then fail "dangling escape";
              (match line.[!pos] with
              | ('\\' | '"' | 'n') as c ->
                Buffer.add_char labels '\\';
                Buffer.add_char labels c;
                incr pos
              | c -> fail "bad escape \\%c" c);
              value ()
            | c ->
              Buffer.add_char labels c;
              incr pos;
              value ()
          in
          value ();
          Buffer.add_char labels ';';
          label_pair false
        end
      in
      label_pair true
    end;
    if !pos >= n || line.[!pos] <> ' ' then fail "expected space before value";
    incr pos;
    let value_str = String.sub line !pos (n - !pos) in
    let value =
      match value_str with
      | "+Inf" -> Float.infinity
      | "-Inf" -> Float.neg_infinity
      | "NaN" -> Float.nan
      | s -> (
        match float_of_string_opt (String.trim s) with
        | Some v -> v
        | None -> fail "unparseable value %S" s)
    in
    let base = strip_suffix name in
    if not (Hashtbl.mem typed base) then
      err lineno "sample %s has no preceding # TYPE" name;
    let series = name ^ Buffer.contents labels in
    if Hashtbl.mem seen_series series then
      err lineno "duplicate series %s" series
    else Hashtbl.add seen_series series value
  in
  let lines = String.split_on_char '\n' text in
  let count = List.length lines in
  List.iteri
    (fun i line ->
      let lineno = i + 1 in
      if line = "" then begin
        (* only the trailing newline may produce an empty slot *)
        if lineno < count then err lineno "blank line"
      end
      else if String.length line >= 1 && line.[0] = '#' then begin
        match String.split_on_char ' ' line with
        | "#" :: "TYPE" :: name :: kind :: [] ->
          if not (List.mem kind [ "counter"; "gauge"; "histogram"; "summary"; "untyped" ])
          then err lineno "bad TYPE kind %S" kind;
          if Hashtbl.mem typed name then err lineno "duplicate TYPE for %s" name;
          Hashtbl.replace typed name kind
        | "#" :: "TYPE" :: _ -> err lineno "malformed TYPE line"
        | "#" :: "HELP" :: _ :: _ -> ()
        | "#" :: "HELP" :: _ -> err lineno "malformed HELP line"
        | _ -> () (* free comment *)
      end
      else try parse_sample lineno line with Exit -> ())
    lines;
  (match List.rev lines with
  | "" :: _ -> ()
  | _ -> errors := "final line must end with a newline" :: !errors);
  (* cumulative-bucket monotonicity per histogram series *)
  Hashtbl.iter
    (fun name kind ->
      if kind = "histogram" then begin
        (* collect buckets per label-set-minus-le; series keys encode
           labels as name{k=value;...} with escapes collapsed, which is
           enough to group and compare *)
        let groups = Hashtbl.create 8 in
        Hashtbl.iter
          (fun series value ->
            let prefix = name ^ "_bucket" in
            let plen = String.length prefix in
            if
              String.length series > plen
              && String.sub series 0 plen = prefix
              && (String.length series = plen || series.[plen] = '{')
            then begin
              (* peel the le label out of the flattened key *)
              let key = series in
              match String.index_opt key '{' with
              | None -> ()
              | Some _ ->
                let le_marker = "le=" in
                let rec find_le from =
                  match String.index_from_opt key from 'l' with
                  | Some i
                    when i + 3 <= String.length key
                         && String.sub key i 3 = le_marker ->
                    Some i
                  | Some i -> find_le (i + 1)
                  | None -> None
                in
                (match find_le 0 with
                | None -> ()
                | Some i ->
                  let j =
                    match String.index_from_opt key i ';' with
                    | Some j -> j
                    | None -> String.length key
                  in
                  let le = String.sub key (i + 3) (j - i - 3) in
                  let rest =
                    String.sub key 0 i ^ String.sub key j (String.length key - j)
                  in
                  let le_value =
                    match le with
                    | "+Inf" -> Float.infinity
                    | s -> Option.value ~default:Float.nan (float_of_string_opt s)
                  in
                  let prev =
                    Option.value ~default:[] (Hashtbl.find_opt groups rest)
                  in
                  Hashtbl.replace groups rest ((le_value, value) :: prev))
            end)
          seen_series;
        Hashtbl.iter
          (fun _ buckets ->
            let sorted =
              List.sort (fun (a, _) (b, _) -> compare a b) buckets
            in
            ignore
              (List.fold_left
                 (fun acc (_, v) ->
                   if v < acc then
                     errors :=
                       Printf.sprintf "%s: non-cumulative buckets" name
                       :: !errors;
                   Float.max acc v)
                 0.0 sorted))
          groups
      end)
    typed;
  match List.rev !errors with [] -> Ok () | es -> Error es

(* ------------------------------------------------------------------ *)
(* scrape responder *)

let parse_listen_addr spec =
  match String.rindex_opt spec ':' with
  | None -> invalid_arg "listen address must be ADDR:PORT"
  | Some i ->
    let host = String.sub spec 0 i in
    let port_s = String.sub spec (i + 1) (String.length spec - i - 1) in
    let port =
      match int_of_string_opt port_s with
      | Some p when p >= 0 && p < 65536 -> p
      | _ -> invalid_arg (Printf.sprintf "bad port %S" port_s)
    in
    let addr =
      match host with
      | "" | "*" -> Unix.inet_addr_any
      | "localhost" -> Unix.inet_addr_loopback
      | h -> (
        try Unix.inet_addr_of_string h
        with Failure _ -> (
          match Unix.gethostbyname h with
          | { Unix.h_addr_list = [||]; _ } ->
            invalid_arg (Printf.sprintf "cannot resolve %S" h)
          | { Unix.h_addr_list; _ } -> h_addr_list.(0)
          | exception Not_found ->
            invalid_arg (Printf.sprintf "cannot resolve %S" h)))
    in
    Unix.ADDR_INET (addr, port)

let listen spec =
  let addr = parse_listen_addr spec in
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd addr;
  Unix.listen fd 16;
  fd

let bound_port fd =
  match Unix.getsockname fd with
  | Unix.ADDR_INET (_, port) -> port
  | Unix.ADDR_UNIX _ -> invalid_arg "not an INET socket"

let read_request fd =
  let buf = Bytes.create 4096 in
  let acc = Buffer.create 256 in
  let rec go () =
    if Buffer.length acc > 65536 then Buffer.contents acc
    else
      let n = Unix.read fd buf 0 (Bytes.length buf) in
      if n = 0 then Buffer.contents acc
      else begin
        Buffer.add_subbytes acc buf 0 n;
        let s = Buffer.contents acc in
        (* headers end at the first blank line; we never read bodies *)
        let rec has_terminator i =
          match String.index_from_opt s i '\n' with
          | None -> false
          | Some j ->
            if j + 1 < String.length s && (s.[j + 1] = '\n' || (s.[j + 1] = '\r' && j + 2 < String.length s && s.[j + 2] = '\n'))
            then true
            else has_terminator (j + 1)
        in
        if has_terminator 0 || String.length s >= 4 && String.sub s (String.length s - 4) 4 = "\r\n\r\n"
        then s
        else go ()
      end
  in
  try go () with Unix.Unix_error _ -> ""

let write_all fd s =
  let b = Bytes.of_string s in
  let rec go off =
    if off < Bytes.length b then
      let n = Unix.write fd b off (Bytes.length b - off) in
      go (off + n)
  in
  try go 0 with Unix.Unix_error _ -> ()

let respond fd status content_type body =
  write_all fd
    (Printf.sprintf
       "HTTP/1.1 %s\r\nContent-Type: %s\r\nContent-Length: %d\r\nConnection: close\r\n\r\n%s"
       status content_type (String.length body) body)

let content_type_prom = "text/plain; version=0.0.4; charset=utf-8"

(* One request per connection, strictly sequential: a scrape endpoint
   for one Prometheus server does not need concurrency, and a
   single-threaded loop cannot corrupt the registry it snapshots. *)
let serve ?max_requests ?(should_stop = fun () -> false) ?namespace ~registry
    fd =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let served = ref 0 in
  let continue () =
    (not (should_stop ()))
    && match max_requests with None -> true | Some m -> !served < m
  in
  while continue () do
    match Unix.accept fd with
    (* a signal (SIGINT/SIGTERM under graceful shutdown) interrupts
       the blocking accept with EINTR; re-checking the loop condition
       is what turns the signal into a clean exit *)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | client, _ ->
      Fun.protect
        ~finally:(fun () -> try Unix.close client with Unix.Unix_error _ -> ())
        (fun () ->
          let request = read_request client in
          let path =
            match String.split_on_char ' ' request with
            | meth :: path :: _ when meth = "GET" || meth = "HEAD" -> path
            | _ -> ""
          in
          match path with
          | "/metrics" | "/" ->
            respond client "200 OK" content_type_prom
              (to_prometheus ?namespace (Metrics.snapshot registry))
          | "/healthz" ->
            respond client "200 OK" "text/plain" (Status.healthz ())
          | "/statusz" ->
            respond client "200 OK" "application/json"
              (Json.to_string (Status.to_json ~registry ()) ^ "\n")
          | "" -> respond client "400 Bad Request" "text/plain" "bad request\n"
          | _ ->
            respond client "404 Not Found" "text/plain"
              "try /metrics, /healthz or /statusz\n");
      incr served
  done;
  !served
