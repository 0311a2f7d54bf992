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

let version = 1

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

let hex = Printf.sprintf "%h"

let flag b = if b then "1" else "0"

(* encode the search state and atomically replace the file at [path] *)
let write ~path ~model ~options ~elapsed ~incumbent ~prngs st =
  let n = Model.num_vars model in
  let lines = ref [] in
  let add l = lines := l :: !lines in
  let buf = Buffer.create 256 in
  let flush_line () =
    let s = Buffer.contents buf in
    Buffer.clear buf;
    add s
  in
  let add_word s =
    Buffer.add_char buf ' ';
    Buffer.add_string buf s
  in
  let add_floats a = Array.iter (fun x -> add_word (hex x)) a in
  add
    (Printf.sprintf "dir %s"
       (match Model.direction model with
       | Model.Minimize -> "min"
       | Model.Maximize -> "max"));
  add
    (Printf.sprintf "opts %s %s %s %d %s %s %d"
       (match options.branching with
       | Pseudocost -> "pc"
       | Most_fractional -> "mf")
       (hex options.gap_tolerance)
       (hex options.integrality_tol)
       options.heuristic_period (flag options.warm_start)
       (match options.kernel with
       | Simplex.Sparse_lu -> "sparse"
       | Simplex.Dense -> "dense")
       options.wave);
  add (Printf.sprintf "elapsed %s" (hex elapsed));
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
      flush_line ());
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
    flush_line ());
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
        Array.iter (fun bi -> add_word (string_of_int bi)) b);
      add_floats nd.lower;
      add_floats nd.upper;
      flush_line ())
    keys;
  (* the run manifest rides along verbatim, so a checkpoint identifies
     the run (host, argv, git revision) that produced it *)
  (match Status.manifest () with
  | Some j -> add ("manifest " ^ Json.to_string j)
  | None -> ());
  Ckpt.write ~path ~magic ~version (List.rev !lines)

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
  | [ "opts"; br; gap; itol; heur; warm; kernel; wave ], i ->
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
      kernel =
        (match kernel with
        | "sparse" -> Simplex.Sparse_lu
        | "dense" -> Simplex.Dense
        | _ -> fail rd i (Printf.sprintf "bad kernel %S" kernel));
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

(* one [h] record: a heap key and its open node over [n] variables *)
let decode_node rd n =
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
    let lower = Array.make n 0.0 and upper = Array.make n 0.0 in
    let rest = fill lower pfloat "node lower bounds" rest in
    let rest = fill upper pfloat "node upper bounds" rest in
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
  let heap = Array.init (field rd "heap" pint) (fun _ -> decode_node rd n) in
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
