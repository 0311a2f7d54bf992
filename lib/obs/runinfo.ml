(* A run manifest identifies one solver invocation well enough to join
   two traces offline: a generated id, the code revision, the
   toolchain, the host, the chaos seed (when fault injection was
   armed) and the command line. It is emitted as the first event of
   every traced run and stamped into bench reports. *)

(* the one version string: cmdliner --version, the bench report and
   the build_info exposition all quote it *)
let version = "1.0.0"

type t = {
  run_id : string;
  git_rev : string option;
  ocaml_version : string;
  hostname : string;
  chaos_seed : int option;
  jobs : int option;
  scheduler : string option;
  argv : string list;
}

(* wall-clock millis + pid + a per-process counter: unique across
   hosts in practice, and cheap enough to mint per run *)
let counter = ref 0

let gen_id () =
  incr counter;
  let ms = Int64.of_float (Unix.gettimeofday () *. 1e3) in
  Printf.sprintf "run-%Lx-%x-%x" ms (Unix.getpid ()) !counter

(* The revision comes from the environment when the build system
   provides it (MONPOS_GIT_REV, set by CI), falling back to asking
   git; a container without git or a checkout just omits it. *)
let detect_git_rev () =
  match Sys.getenv_opt "MONPOS_GIT_REV" with
  | Some rev when rev <> "" -> Some rev
  | _ -> (
    try
      let ic = Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" in
      let line = try input_line ic with End_of_file -> "" in
      match (Unix.close_process_in ic, line) with
      | Unix.WEXITED 0, rev when rev <> "" -> Some rev
      | _ -> None
    with Unix.Unix_error _ | Sys_error _ -> None)

let capture ?chaos_seed ?jobs ?scheduler ?argv () =
  {
    run_id = gen_id ();
    git_rev = detect_git_rev ();
    ocaml_version = Sys.ocaml_version;
    hostname = (try Unix.gethostname () with Unix.Unix_error _ -> "unknown");
    chaos_seed;
    jobs;
    (* the wave scheduler is the branch-and-bound solver's only one *)
    scheduler =
      (match scheduler with
      | None when jobs <> None -> Some "wave"
      | s -> s);
    argv =
      (match argv with
      | Some a -> Array.to_list a
      | None -> Array.to_list Sys.argv);
  }

let to_fields t =
  [
    ("run_id", Json.String t.run_id);
    ( "git_rev",
      match t.git_rev with Some r -> Json.String r | None -> Json.Null );
    ("ocaml_version", Json.String t.ocaml_version);
    ("hostname", Json.String t.hostname);
    ( "chaos_seed",
      match t.chaos_seed with Some s -> Json.Int s | None -> Json.Null );
    ("jobs", match t.jobs with Some j -> Json.Int j | None -> Json.Null);
    ( "scheduler",
      match t.scheduler with Some s -> Json.String s | None -> Json.Null );
    ("argv", Json.List (List.map (fun a -> Json.String a) t.argv));
  ]

let to_json t = Json.Obj (to_fields t)

let emit sink t = if Trace.enabled sink then Trace.emit sink "run_info" (to_fields t)
