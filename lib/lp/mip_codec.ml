module Status = Monpos_obs.Status
module Json = Monpos_obs.Json
module Error = Monpos_resilience.Error
module Ckpt = Monpos_resilience.Checkpoint
module Prng = Monpos_util.Prng
module H = Monpos_util.Heap
open Mip_types

(* The checkpoint format of the branch-and-bound search.

   A checkpoint captures the wave scheduler's complete
   search state at a wave barrier: the (post-presolve) model, the
   search-shaping options, the open-node frontier with bounds and
   warm-start bases, the incumbent, the pseudocost tables, the worker
   PRNG stream positions and the run manifest. Two representation
   choices carry the determinism-under-resume contract:

   - every float travels as a hexadecimal literal ("%h"), so bounds,
     coefficients, scores and PRNG-derived values round-trip
     bit-exactly — resumed arithmetic starts from the very same bits;

   - the heap is stored as its verbatim internal array (Heap.snapshot
     / Heap.restore), not as a sorted drain: a rebuild by re-pushing
     would reorder equal keys and change which of two tied nodes is
     expanded first.

   The container (header, checksum trailer, atomic tmp-then-rename
   replace) is Monpos_resilience.Checkpoint; this module encodes and
   decodes the body lines and owns the magic and the version. *)

let magic = "monpos-mip-checkpoint"

(* version 2 dropped the simplex kernel token from the [opts] record;
   version 3 writes each open node's bounds as a diff against the
   model's *)
let version = 3

(* everything [Mip.resume] needs to restart the search mid-way *)
type saved = {
  s_path : string;
  s_options : options;
  s_model : Model.t;
  s_elapsed : float;
  s_incumbent : Incumbent.cand option;
  s_prngs : (int64 * int64) array;
  s_search : search;
}

(* "%h", with the values that make up most of a checkpoint — 0/1
   bounds of every frontier node and unit coefficients — spelled
   without a Printf call; the text is the same *)
let hex x =
  if x = 0.0 && 1.0 /. x > 0.0 then "0x0p+0"
  else if x = 1.0 then "0x1p+0"
  else if x = -1.0 then "-0x1p+0"
  else Printf.sprintf "%h" x

let flag b = if b then "1" else "0"

(* Body lines, collected in reverse; [buf] holds the line being built. *)
type out = { mutable lines : string list; buf : Buffer.t }

let out () = { lines = []; buf = Buffer.create 256 }

let add o l = o.lines <- l :: o.lines

let add_word o s =
  Buffer.add_char o.buf ' ';
  Buffer.add_string o.buf s

let flush_line o =
  add o (Buffer.contents o.buf);
  Buffer.clear o.buf

(* " <i>" appended in decimal without building a string: a frontier
   node's basis is one such word per row *)
let add_int o i =
  Buffer.add_char o.buf ' ';
  if i < 0 || i >= 10_000_000 then Buffer.add_string o.buf (string_of_int i)
  else begin
    let rec digits d = if d * 10 > i then d else digits (d * 10) in
    let d = ref (digits 1) in
    while !d > 0 do
      Buffer.add_char o.buf (Char.unsafe_chr (48 + (i / !d mod 10)));
      d := !d / 10
    done
  end

(* The vars/v/constrs/c records. The model is fixed for a whole solve
   and is most of a checkpoint's text, so [Mip] encodes it once per
   solve and hands the lines to every [write]. *)
let model_lines model =
  let n = Model.num_vars model in
  let o = out () in
  let buf = o.buf and add = add o and add_word = add_word o in
  add (Printf.sprintf "vars %d" n);
  for v = 0 to n - 1 do
    let hv = Model.var_of_index model v in
    add
      (Printf.sprintf "v %s %s %s %s"
         (hex (Model.var_lb model hv))
         (hex (Model.var_ub model hv))
         (hex (Model.var_obj model hv))
         (match Model.var_kind model hv with
         | Model.Continuous -> "c"
         | Model.Integer -> "i"
         | Model.Binary -> "b"))
  done;
  add (Printf.sprintf "constrs %d" (Model.num_constrs model));
  Model.iter_constrs model (fun _ terms sense rhs ->
      Buffer.add_char buf 'c';
      add_word
        (match sense with Model.Le -> "le" | Model.Ge -> "ge" | Model.Eq -> "eq");
      add_word (hex rhs);
      add_word (string_of_int (List.length terms));
      List.iter
        (fun (c, v) ->
          add_word (hex c);
          add_word (string_of_int v))
        terms;
      flush_line o);
  List.rev o.lines

(* encode the search state and atomically replace the file at [path];
   [model_lines] is [model_lines model] *)
let write ~path ~model ~model_lines ~options ~elapsed ~incumbent ~prngs st =
  let n = Model.num_vars model in
  let o = out () in
  let buf = o.buf and add = add o and add_word = add_word o in
  let add_floats a = Array.iter (fun x -> add_word (hex x)) a in
  add
    (Printf.sprintf "dir %s"
       (match Model.direction model with
       | Model.Minimize -> "min"
       | Model.Maximize -> "max"));
  add
    (Printf.sprintf "opts %s %s %s %d %s %d"
       (match options.branching with
       | Pseudocost -> "pc"
       | Most_fractional -> "mf")
       (hex options.gap_tolerance)
       (hex options.integrality_tol)
       options.heuristic_period (flag options.warm_start) options.wave);
  add (Printf.sprintf "elapsed %s" (hex elapsed));
  List.iter add model_lines;
  add
    (Printf.sprintf "state %d %d %s %s %s %s" st.nodes st.next_seq
       (hex st.best_open) (flag st.merge_stopped) (flag st.merge_deadline)
       (flag st.infeasible_root));
  (match incumbent with
  | None -> add "inc none"
  | Some c ->
    Buffer.add_string buf "inc ";
    Buffer.add_string buf (hex c.Incumbent.score);
    let k1, k2 = c.Incumbent.key in
    Buffer.add_string buf
      (Printf.sprintf " %d %d %d" k1 k2 (Array.length c.Incumbent.x));
    add_floats c.Incumbent.x;
    flush_line o);
  let pc = st.pc in
  for v = 0 to n - 1 do
    if pc.pc_down_n.(v) > 0 || pc.pc_up_n.(v) > 0 then
      add
        (Printf.sprintf "pc %d %s %d %s %d" v
           (hex pc.pc_down.(v))
           pc.pc_down_n.(v)
           (hex pc.pc_up.(v))
           pc.pc_up_n.(v))
  done;
  add (Printf.sprintf "prngs %d" (Array.length prngs));
  Array.iteri
    (fun w g ->
      let s, gm = Prng.state g in
      add (Printf.sprintf "g %d %Ld %Ld" w s gm))
    prngs;
  (* a node's bounds are the model's except where branching moved
     them, so each node lists only the variables whose bounds differ
     (bit for bit) from the model's: writes stay proportional to the
     depth of the frontier, not to its size times the variable count *)
  let root_lb = Array.init n (fun v -> Model.var_lb model (Model.var_of_index model v))
  and root_ub = Array.init n (fun v -> Model.var_ub model (Model.var_of_index model v)) in
  let same a b = Int64.bits_of_float a = Int64.bits_of_float b in
  let keys, frontier = H.snapshot st.queue in
  add (Printf.sprintf "heap %d" (Array.length keys));
  Array.iteri
    (fun i key ->
      let nd = frontier.(i) in
      Buffer.add_string buf "h ";
      Buffer.add_string buf (hex key);
      Buffer.add_string buf (Printf.sprintf " %d %d" nd.seq nd.depth);
      (match nd.branched with
      | None -> Buffer.add_string buf " -"
      | Some (v, dir, score, frac) ->
        Buffer.add_string buf
          (Printf.sprintf " %d %s %s %s" v
             (match dir with `Down -> "d" | `Up -> "u")
             (hex score) (hex frac)));
      (match nd.start_basis with
      | None -> Buffer.add_string buf " -"
      | Some b ->
        Buffer.add_string buf (Printf.sprintf " %d" (Array.length b));
        Array.iter (fun bi -> add_int o bi) b);
      let moved v = not (same nd.lower.(v) root_lb.(v) && same nd.upper.(v) root_ub.(v)) in
      let count = ref 0 in
      for v = 0 to n - 1 do
        if moved v then incr count
      done;
      add_word (string_of_int !count);
      for v = 0 to n - 1 do
        if moved v then begin
          add_word (string_of_int v);
          add_word (hex nd.lower.(v));
          add_word (hex nd.upper.(v))
        end
      done;
      flush_line o)
    keys;
  (* the run manifest rides along verbatim, so a checkpoint identifies
     the run (host, argv, git revision) that produced it *)
  (match Status.manifest () with
  | Some j -> add ("manifest " ^ Json.to_string j)
  | None -> ());
  Ckpt.write ~path ~magic ~version (List.rev o.lines)

(* Decoding reads the body through a cursor. Body line [i] sits at
   file line [i + 2] (line 1 is the container header), which is the
   line every parse error reports. *)
type reader = { path : string; lines : string array; mutable pos : int }

let fail rd i msg = Error.parse_error ~file:rd.path ~line:(i + 2) msg

let peek rd =
  if rd.pos < Array.length rd.lines then Some rd.lines.(rd.pos) else None

(* the next line's tokens and its index *)
let toks rd what =
  match peek rd with
  | Some l ->
    rd.pos <- rd.pos + 1;
    (String.split_on_char ' ' l, rd.pos - 1)
  | None ->
    fail rd (Array.length rd.lines) ("truncated checkpoint: wanted " ^ what)

let scalar kind conv rd i s =
  match conv s with
  | Some v -> v
  | None -> fail rd i (Printf.sprintf "bad %s %S" kind s)

let pfloat = scalar "float" float_of_string_opt

let pint = scalar "int" int_of_string_opt

let pint64 = scalar "int64" Int64.of_string_opt

let pbool rd i = function
  | "1" -> true
  | "0" -> false
  | s -> fail rd i (Printf.sprintf "bad flag %S" s)

(* a two-token [what value] record *)
let field rd what conv =
  match toks rd what with
  | [ w; v ], i when w = what -> conv rd i v
  | _, i -> fail rd i (Printf.sprintf "bad %s record" what)

let decode_options rd =
  match toks rd "opts" with
  | [ "opts"; br; gap; itol; heur; warm; wave ], i ->
    {
      default_options with
      branching =
        (match br with
        | "pc" -> Pseudocost
        | "mf" -> Most_fractional
        | _ -> fail rd i (Printf.sprintf "bad branching %S" br));
      gap_tolerance = pfloat rd i gap;
      integrality_tol = pfloat rd i itol;
      heuristic_period = pint rd i heur;
      warm_start = pbool rd i warm;
      wave = pint rd i wave;
      presolve = false;
    }
  | _, i -> fail rd i "bad opts record"

(* the vars/v/constrs/c records *)
let decode_model rd direction =
  let model = Model.create ~name:"resumed" direction in
  for _ = 1 to field rd "vars" pint do
    match toks rd "v" with
    | [ "v"; lb; ub; obj; kind ], i ->
      let kind =
        match kind with
        | "c" -> Model.Continuous
        | "i" -> Model.Integer
        | "b" -> Model.Binary
        | _ -> fail rd i (Printf.sprintf "bad var kind %S" kind)
      in
      ignore
        (Model.add_var model ~lb:(pfloat rd i lb) ~ub:(pfloat rd i ub)
           ~obj:(pfloat rd i obj) kind)
    | _, i -> fail rd i "bad v record"
  done;
  for _ = 1 to field rd "constrs" pint do
    match toks rd "c" with
    | "c" :: sense :: rhs :: k :: rest, i ->
      let sense =
        match sense with
        | "le" -> Model.Le
        | "ge" -> Model.Ge
        | "eq" -> Model.Eq
        | _ -> fail rd i (Printf.sprintf "bad sense %S" sense)
      in
      let k = pint rd i k in
      let rec take acc j rest =
        if j = k then (List.rev acc, rest)
        else
          match rest with
          | c :: v :: rest ->
            take
              ((pfloat rd i c, Model.var_of_index model (pint rd i v)) :: acc)
              (j + 1) rest
          | _ -> fail rd i "truncated constraint terms"
      in
      let terms, rest = take [] 0 rest in
      if rest <> [] then fail rd i "trailing constraint tokens";
      Model.add_constr model terms sense (pfloat rd i rhs)
    | _, i -> fail rd i "bad c record"
  done;
  model

let decode_incumbent rd =
  match toks rd "inc" with
  | [ "inc"; "none" ], _ -> None
  | "inc" :: score :: k1 :: k2 :: len :: rest, i ->
    let len = pint rd i len in
    if List.length rest <> len then fail rd i "truncated incumbent vector";
    let x = Array.of_list (List.map (pfloat rd i) rest) in
    Some
      {
        Incumbent.score = pfloat rd i score;
        key = (pint rd i k1, pint rd i k2);
        x;
      }
  | _, i -> fail rd i "bad inc record"

(* one [h] record: a heap key and its open node, whose bounds are
   [root_lb]/[root_ub] except where the record lists a variable *)
let decode_node rd ~root_lb ~root_ub =
  let n = Array.length root_lb in
  match toks rd "h" with
  | "h" :: key :: seq :: depth :: rest, i ->
    let fill a parse what rest =
      let rec take j rest =
        if j = Array.length a then rest
        else
          match rest with
          | x :: rest ->
            a.(j) <- parse rd i x;
            take (j + 1) rest
          | [] -> fail rd i ("truncated " ^ what)
      in
      take 0 rest
    in
    let branched, rest =
      match rest with
      | "-" :: rest -> (None, rest)
      | v :: d :: score :: frac :: rest ->
        let dir =
          match d with
          | "d" -> `Down
          | "u" -> `Up
          | _ -> fail rd i (Printf.sprintf "bad branch direction %S" d)
        in
        (Some (pint rd i v, dir, pfloat rd i score, pfloat rd i frac), rest)
      | _ -> fail rd i "truncated node record"
    in
    let start_basis, rest =
      match rest with
      | "-" :: rest -> (None, rest)
      | sz :: rest ->
        let b = Array.make (pint rd i sz) 0 in
        (Some b, fill b pint "basis" rest)
      | [] -> fail rd i "truncated node record"
    in
    let lower = Array.copy root_lb and upper = Array.copy root_ub in
    let rest =
      match rest with
      | k :: rest ->
        let rec take j rest =
          if j = 0 then rest
          else
            match rest with
            | v :: lo :: hi :: rest ->
              let v = pint rd i v in
              if v < 0 || v >= n then fail rd i "node bound variable out of range";
              lower.(v) <- pfloat rd i lo;
              upper.(v) <- pfloat rd i hi;
              take (j - 1) rest
            | _ -> fail rd i "truncated node bounds"
        in
        take (pint rd i k) rest
      | [] -> fail rd i "truncated node record"
    in
    if rest <> [] then fail rd i "trailing node tokens";
    ( pfloat rd i key,
      {
        lower;
        upper;
        depth = pint rd i depth;
        seq = pint rd i seq;
        branched;
        start_basis;
      } )
  | _, i -> fail rd i "bad h record"

let decode ~path body =
  let rd = { path; lines = Array.of_list body; pos = 0 } in
  let direction =
    match toks rd "dir" with
    | [ "dir"; "min" ], _ -> Model.Minimize
    | [ "dir"; "max" ], _ -> Model.Maximize
    | _, i -> fail rd i "bad dir record"
  in
  let s_options = decode_options rd in
  let s_elapsed = field rd "elapsed" pfloat in
  let model = decode_model rd direction in
  let n = Model.num_vars model in
  let nodes, next_seq, best_open, merge_stopped, merge_deadline,
      infeasible_root =
    match toks rd "state" with
    | [ "state"; nodes; seq; best; stopped; dstop; infroot ], i ->
      ( pint rd i nodes,
        pint rd i seq,
        pfloat rd i best,
        pbool rd i stopped,
        pbool rd i dstop,
        pbool rd i infroot )
    | _, i -> fail rd i "bad state record"
  in
  let s_incumbent = decode_incumbent rd in
  let pc = pc_create n in
  let rec pc_rows () =
    match peek rd with
    | Some l when String.length l > 3 && String.sub l 0 3 = "pc " -> (
      match toks rd "pc" with
      | [ "pc"; v; d; dn; u; un ], i ->
        let v = pint rd i v in
        if v < 0 || v >= n then fail rd i "pc variable out of range";
        pc.pc_down.(v) <- pfloat rd i d;
        pc.pc_down_n.(v) <- pint rd i dn;
        pc.pc_up.(v) <- pfloat rd i u;
        pc.pc_up_n.(v) <- pint rd i un;
        pc_rows ()
      | _, i -> fail rd i "bad pc record")
    | _ -> ()
  in
  pc_rows ();
  let s_prngs =
    Array.init (field rd "prngs" pint) (fun w ->
        match toks rd "g" with
        | [ "g"; slot; st; gm ], i ->
          if pint rd i slot <> w then fail rd i "prng slots out of order";
          (pint64 rd i st, pint64 rd i gm)
        | _, i -> fail rd i "bad g record")
  in
  let root f = Array.init n (fun v -> f model (Model.var_of_index model v)) in
  let root_lb = root Model.var_lb and root_ub = root Model.var_ub in
  let heap =
    Array.init (field rd "heap" pint) (fun _ -> decode_node rd ~root_lb ~root_ub)
  in
  (* optional trailing manifest line: informational, not restored *)
  (match peek rd with
  | Some l when String.length l >= 9 && String.sub l 0 9 = "manifest " ->
    rd.pos <- rd.pos + 1
  | _ -> ());
  if rd.pos <> Array.length rd.lines then
    fail rd rd.pos "trailing records after checkpoint body";
  (* verbatim internal arrays: pop order among equal keys is part of
     the determinism contract (see Heap.snapshot) *)
  let queue = H.create () in
  H.restore queue (Array.map fst heap) (Array.map snd heap);
  {
    s_path = path;
    s_options;
    s_model = model;
    s_elapsed;
    s_incumbent;
    s_prngs;
    s_search =
      {
        queue;
        pc;
        next_seq;
        nodes;
        best_open;
        infeasible_root;
        merge_stopped;
        merge_deadline;
      };
  }

let load path =
  let v, body = Ckpt.load ~path ~magic in
  if v <> version then
    Error.parse_error ~file:path ~line:1
      (Printf.sprintf
         "unsupported checkpoint version %d (this build reads version %d)" v
         version);
  decode ~path body
