(* Counters are the one instrument hammered concurrently from solver
   domains (mip.nodes, simplex pivots), so they are atomic; plain
   [mutable] fields would lose increments under parallel B&B.
   Histograms mutate four fields per observation, which no single
   atomic covers, so each carries its own lock. Gauges stay plain:
   a gauge is a last-writer-wins sample and float stores do not tear
   on 64-bit OCaml. *)
type counter = { c : int Atomic.t }

type gauge = { mutable g : float }

type histogram = {
  upper : float array;
  counts : int array; (* length upper + 1; last is overflow *)
  mutable h_count : int;
  mutable h_sum : float;
  (* the observed range, which bounds every quantile estimate *)
  mutable h_min : float;
  mutable h_max : float;
  h_lock : Mutex.t;
}

type instrument =
  | I_counter of counter
  | I_gauge of gauge
  | I_histogram of histogram

type labels = (string * string) list

type series = { name : string; labels : labels }

(* The canonical series key interns a (name, labels) pair as one
   string: the bare name, or name{k="v",...} with label values escaped
   the way the Prometheus exposition format does. Registration builds
   the key once; the registry hashtable is keyed by it, so a cached
   instrument handle never pays the rendering again and hot-path
   increments stay allocation-free. *)
let escape_label_value b v =
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string b "\\\\"
      | '"' -> Buffer.add_string b "\\\""
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    v

let series_key { name; labels } =
  match labels with
  | [] -> name
  | _ ->
    let b = Buffer.create (String.length name + 16) in
    Buffer.add_string b name;
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char b ',';
        Buffer.add_string b k;
        Buffer.add_string b "=\"";
        escape_label_value b v;
        Buffer.add_char b '"')
      labels;
    Buffer.add_char b '}';
    Buffer.contents b

let valid_label_name n =
  n <> ""
  && (match n.[0] with 'a' .. 'z' | 'A' .. 'Z' | '_' -> true | _ -> false)
  && String.for_all
       (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true | _ -> false)
       n

let check_labels name labels =
  let rec dup = function
    | [] -> None
    | (k, _) :: rest ->
      if List.mem_assoc k rest then Some k else dup rest
  in
  List.iter
    (fun (k, _) ->
      if not (valid_label_name k) then
        invalid_arg
          (Printf.sprintf "Metrics: bad label name %S on metric %S" k name))
    labels;
  match dup labels with
  | Some k ->
    invalid_arg
      (Printf.sprintf "Metrics: duplicate label %S on metric %S" k name)
  | None -> ()

type t = {
  tbl : (string, instrument) Hashtbl.t; (* keyed by series_key *)
  kinds : (string, string) Hashtbl.t; (* metric name -> kind, across series *)
  mutable order : series list; (* reversed registration order *)
  lock : Mutex.t;
      (* guards [tbl], [kinds] and [order]; counter handles returned by
         registration are updated lock-free (atomic), histograms under
         their own per-instrument lock *)
}

let create () =
  {
    tbl = Hashtbl.create 32;
    kinds = Hashtbl.create 32;
    order = [];
    lock = Mutex.create ();
  }

let default = create ()

let kind_error name =
  invalid_arg
    (Printf.sprintf "Metrics: %S is already registered with another kind" name)

(* Registration is idempotent per (name, labels) series and enforces
   one kind per metric name across every label set — the Prometheus
   data model, where a family's TYPE line covers all its series. *)
let register t ~name ~labels ~kind make match_existing =
  check_labels name labels;
  let series = { name; labels } in
  let key = series_key series in
  Mutex.protect t.lock (fun () ->
      match Hashtbl.find_opt t.tbl key with
      | Some existing -> match_existing existing
      | None ->
        (match Hashtbl.find_opt t.kinds name with
        | Some k when k <> kind -> kind_error name
        | _ -> ());
        let i = make () in
        Hashtbl.replace t.tbl key i;
        Hashtbl.replace t.kinds name kind;
        t.order <- series :: t.order;
        i)

let counter ?(labels = []) t name =
  match
    register t ~name ~labels ~kind:"counter"
      (fun () -> I_counter { c = Atomic.make 0 })
      (function I_counter _ as i -> i | _ -> kind_error name)
  with
  | I_counter c -> c
  | _ -> assert false

let gauge ?(labels = []) t name =
  match
    register t ~name ~labels ~kind:"gauge"
      (fun () -> I_gauge { g = 0.0 })
      (function I_gauge _ as i -> i | _ -> kind_error name)
  with
  | I_gauge g -> g
  | _ -> assert false

let default_buckets =
  [| 1e-4; 3e-4; 1e-3; 3e-3; 1e-2; 3e-2; 0.1; 0.3; 1.0; 3.0; 10.0; 30.0 |]

let histogram ?(buckets = default_buckets) ?(labels = []) t name =
  if Array.length buckets = 0 then invalid_arg "Metrics.histogram: no buckets";
  Array.iteri
    (fun i b ->
      if i > 0 && b <= buckets.(i - 1) then
        invalid_arg "Metrics.histogram: buckets must be ascending")
    buckets;
  match
    register t ~name ~labels ~kind:"histogram"
      (fun () ->
        I_histogram
          {
            upper = Array.copy buckets;
            counts = Array.make (Array.length buckets + 1) 0;
            h_count = 0;
            h_sum = 0.0;
            h_min = infinity;
            h_max = neg_infinity;
            h_lock = Mutex.create ();
          })
      (function I_histogram _ as i -> i | _ -> kind_error name)
  with
  | I_histogram h -> h
  | _ -> assert false

let incr c = Atomic.incr c.c

let add c n = ignore (Atomic.fetch_and_add c.c n)

let counter_value c = Atomic.get c.c

let set g v = g.g <- v

let gauge_value g = g.g

let observe h v =
  let n = Array.length h.upper in
  let rec bucket i = if i >= n || v <= h.upper.(i) then i else bucket (i + 1) in
  let i = bucket 0 in
  Mutex.protect h.h_lock (fun () ->
      h.counts.(i) <- h.counts.(i) + 1;
      h.h_count <- h.h_count + 1;
      h.h_sum <- h.h_sum +. v;
      (* written only when the range grows: observe stays as cheap as
         it was for the common in-range sample *)
      if v < h.h_min then h.h_min <- v;
      if v > h.h_max then h.h_max <- v)

type entry =
  | Counter_value of int
  | Gauge_value of float
  | Histogram_value of {
      upper : float array;
      counts : int array;
      count : int;
      sum : float;
      min : float;
      max : float;
    }

type snapshot = (series * entry) list

let snapshot t =
  Mutex.protect t.lock (fun () ->
      List.rev_map
        (fun series ->
          let entry =
            match Hashtbl.find t.tbl (series_key series) with
            | I_counter c -> Counter_value (Atomic.get c.c)
            | I_gauge g -> Gauge_value g.g
            | I_histogram h ->
              Mutex.protect h.h_lock (fun () ->
                  Histogram_value
                    {
                      upper = Array.copy h.upper;
                      counts = Array.copy h.counts;
                      count = h.h_count;
                      sum = h.h_sum;
                      min = h.h_min;
                      max = h.h_max;
                    })
          in
          (series, entry))
        t.order)

let reset t =
  Mutex.protect t.lock (fun () ->
      Hashtbl.iter
        (fun _ i ->
          match i with
          | I_counter c -> Atomic.set c.c 0
          | I_gauge g -> g.g <- 0.0
          | I_histogram h ->
            Mutex.protect h.h_lock (fun () ->
                Array.fill h.counts 0 (Array.length h.counts) 0;
                h.h_count <- 0;
                h.h_sum <- 0.0;
                h.h_min <- infinity;
                h.h_max <- neg_infinity))
        t.tbl)

let find ?(labels = []) snap name =
  List.find_map
    (fun (s, e) -> if s.name = name && s.labels = labels then Some e else None)
    snap

let sum_counter snap name =
  List.fold_left
    (fun acc (s, e) ->
      match e with
      | Counter_value v when s.name = name -> acc + v
      | _ -> acc)
    0 snap

(* Percentile estimate of a non-empty histogram: linear interpolation
   within buckets, clamped to the observed range — interpolating from
   a bucket's lower edge alone would report a single 12.48 s sample as
   p50 = 10. An estimate landing in the unbounded overflow bucket
   reports the maximum. *)
let estimate_percentile ~upper ~counts ~min ~max p =
  match Monpos_util.Stats.percentile_buckets ~upper ~counts p with
  | Some v -> Float.min max (Float.max min v)
  | None -> max

let render_table snap =
  let rows =
    List.map
      (fun (series, entry) ->
        let name = series_key series in
        match entry with
        | Counter_value c -> [ name; "counter"; string_of_int c ]
        | Gauge_value g -> [ name; "gauge"; Printf.sprintf "%g" g ]
        | Histogram_value h ->
          let pct p =
            estimate_percentile ~upper:h.upper ~counts:h.counts ~min:h.min
              ~max:h.max p
          in
          [
            name;
            "histogram";
            (if h.count = 0 then "count=0"
             else
               Printf.sprintf
                 "count=%d sum=%.6g mean=%.6g p50=%.6g p90=%.6g p99=%.6g"
                 h.count
                 h.sum
                 (h.sum /. float_of_int h.count)
                 (pct 50.0) (pct 90.0) (pct 99.0));
          ])
      snap
  in
  Monpos_util.Table.render ~header:[ "metric"; "kind"; "value" ] rows

let to_json snap =
  Json.Obj
    (List.map
       (fun (series, entry) ->
         let v =
           match entry with
           | Counter_value c -> Json.Int c
           | Gauge_value g -> Json.Float g
           | Histogram_value h ->
             let buckets =
               List.init
                 (Array.length h.counts)
                 (fun i ->
                   Json.Obj
                     [
                       ( "le",
                         if i < Array.length h.upper then Json.Float h.upper.(i)
                         else Json.Null );
                       ("count", Json.Int h.counts.(i));
                     ])
             in
             let pjson p =
               if h.count = 0 then Json.Null
               else
                 Json.Float
                   (estimate_percentile ~upper:h.upper ~counts:h.counts
                      ~min:h.min ~max:h.max p)
             in
             Json.Obj
               [
                 ("count", Json.Int h.count);
                 ("sum", Json.Float h.sum);
                 ("p50", pjson 50.0);
                 ("p90", pjson 90.0);
                 ("p99", pjson 99.0);
                 ("buckets", Json.List buckets);
               ]
         in
         (series_key series, v))
       snap)
