(* In-memory span recorder for the traced run. The benchmark opens a
   span around each op and around every public call it makes into a
   layer; spans of one op share its id. Nothing is written until the
   run ends. *)

type span = {
  id : int;
  parent : int;  (** -1 for an op's root span *)
  op : int;
  name : string;
  start : float;
  stop : float;
}

let enabled = ref false
let recorded : span list ref = ref []
let next_id = ref 0
let current = ref (-1)
let current_op = ref (-1)

let with_span name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = !current in
    current := id;
    let start = Monpos_obs.Clock.now () in
    Fun.protect
      ~finally:(fun () ->
        recorded :=
          { id; parent; op = !current_op; name; start;
            stop = Monpos_obs.Clock.now () }
          :: !recorded;
        current := parent)
      f
  end

let with_op id f =
  current_op := id;
  Fun.protect ~finally:(fun () -> current_op := -1) (fun () ->
      with_span "op" f)

let duration s = s.stop -. s.start

(* spans of one op; the index is rebuilt when spans were added *)
let index = Hashtbl.create 1024
let indexed = ref 0

let of_op id =
  if !indexed <> !next_id then begin
    Hashtbl.reset index;
    List.iter (fun s -> Hashtbl.add index s.op s) !recorded;
    indexed := !next_id
  end;
  Hashtbl.find_all index id

let to_json s =
  Monpos_obs.Json.(
    Obj
      [
        ("span", Int s.id); ("parent", Int s.parent); ("op", Int s.op);
        ("name", String s.name); ("start", Float s.start);
        ("end", Float s.stop);
      ])
