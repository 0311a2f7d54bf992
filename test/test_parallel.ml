(* Parallel branch-and-bound tests: the wave scheduler's
   jobs-invariance contract (same incumbent, objective, bound, node
   count and gap for any worker-domain count) on random models and on
   the paper's seed MIPs, the chaos degradation ladder under parallel
   solves, the shared incumbent cell under a multi-domain hammer, and
   the rejection of [deterministic = false]. *)

module Instance = Monpos.Instance
module Passive = Monpos.Passive
module Sampling = Monpos.Sampling
module Active = Monpos.Active
module Resilient = Monpos.Resilient
module Pop = Monpos_topo.Pop
module Model = Monpos_lp.Model
module Mip = Monpos_lp.Mip
module Prng = Monpos_util.Prng
module Chaos = Monpos_resilience.Chaos

let jobs_list = [ 1; 2; 4 ]

let opts ?(wave = 16) jobs =
  { Mip.default_options with Mip.jobs; wave }

let check_float = Alcotest.(check (float 1e-12))

(* exact-equality check over full results: the contract is "identical
   for every jobs value", not "within tolerance" *)
let check_same_result what (a : Mip.result) (b : Mip.result) =
  Alcotest.(check bool) (what ^ ": status") true (a.Mip.status = b.Mip.status);
  check_float (what ^ ": objective") a.Mip.objective b.Mip.objective;
  check_float (what ^ ": bound") a.Mip.bound b.Mip.bound;
  Alcotest.(check int) (what ^ ": nodes") a.Mip.nodes b.Mip.nodes;
  check_float (what ^ ": gap") a.Mip.gap b.Mip.gap;
  match (a.Mip.solution, b.Mip.solution) with
  | None, None -> ()
  | Some xa, Some xb ->
    Alcotest.(check (array (float 1e-12))) (what ^ ": solution") xa xb
  | _ -> Alcotest.fail (what ^ ": one run has a solution, the other not")

(* random 0-1 programs in the style of the brute-force mip tests:
   enough structure to branch a few dozen times *)
let random_model rng =
  let n = 8 + Prng.int rng 4 in
  let m = Model.create Model.Minimize in
  let vars =
    List.init n (fun i ->
        let obj = 1.0 +. Prng.float rng 9.0 in
        Model.add_var m ~name:(Printf.sprintf "x%d" i) ~obj Model.Binary)
  in
  let nconstr = 4 + Prng.int rng 3 in
  for c = 0 to nconstr - 1 do
    let terms =
      List.filter_map
        (fun v ->
          if Prng.bool rng then Some (1.0 +. Prng.float rng 4.0, v) else None)
        vars
    in
    if terms <> [] then begin
      let slack = 1.0 +. Prng.float rng (float_of_int (List.length terms)) in
      Model.add_constr m ~name:(Printf.sprintf "c%d" c) terms Model.Ge slack
    end
  done;
  m

let test_random_models_jobs_invariant () =
  let rng = Prng.create 4242 in
  for trial = 1 to 8 do
    let m = random_model rng in
    let results = List.map (fun jobs -> Mip.solve ~options:(opts jobs) m) jobs_list in
    match results with
    | reference :: rest ->
      List.iteri
        (fun i r ->
          check_same_result
            (Printf.sprintf "trial %d, jobs %d" trial (List.nth jobs_list (i + 1)))
            reference r)
        rest
    | [] -> ()
  done

let test_wave_size_changes_tree_not_correctness () =
  (* the wave size may change which tree is explored, but for a fixed
     wave the result is identical across jobs, and every wave agrees
     on the optimum *)
  let rng = Prng.create 777 in
  let m = random_model rng in
  let base = Mip.solve ~options:(opts 1) m in
  List.iter
    (fun wave ->
      let a = Mip.solve ~options:(opts ~wave 1) m in
      let b = Mip.solve ~options:(opts ~wave 4) m in
      check_same_result (Printf.sprintf "wave %d" wave) a b;
      check_float (Printf.sprintf "wave %d optimum" wave) base.Mip.objective
        a.Mip.objective)
    [ 1; 4; 64 ]

(* ---------- the seed MIPs of the paper ---------- *)

let test_ppm_jobs_invariant () =
  let pop = Pop.make_preset `Pop10 ~seed:3 in
  let inst = Instance.of_pop pop ~seed:(3 * 131) in
  let runs =
    List.map
      (fun jobs -> Passive.solve_mip ~k:0.9 ~options:(opts jobs) inst)
      jobs_list
  in
  match runs with
  | r1 :: rest ->
    List.iter
      (fun (r : Passive.solution) ->
        Alcotest.(check int) "devices" r1.Passive.count r.Passive.count;
        Alcotest.(check (list int)) "monitors" r1.Passive.monitors
          r.Passive.monitors;
        check_float "coverage" r1.Passive.fraction r.Passive.fraction;
        Alcotest.(check bool) "proved" r1.Passive.optimal r.Passive.optimal)
      rest
  | [] -> ()

let test_ppme_jobs_invariant () =
  let pop = Pop.make_preset `Pop10 ~seed:1 in
  let inst = Instance.of_pop pop ~seed:131 in
  let costs = Sampling.load_scaled_costs inst ~install:8.0 () in
  let pb = Sampling.make_problem ~k:0.9 ~costs inst in
  let runs =
    List.map
      (fun jobs ->
        let options =
          { Sampling.default_milp_options with Mip.jobs }
        in
        Sampling.solve_milp ~options pb)
      jobs_list
  in
  match runs with
  | r1 :: rest ->
    List.iter
      (fun (r : Sampling.solution) ->
        Alcotest.(check (list int)) "installed" r1.Sampling.installed
          r.Sampling.installed;
        check_float "install cost" r1.Sampling.install_cost
          r.Sampling.install_cost;
        check_float "exploit cost" r1.Sampling.exploit_cost
          r.Sampling.exploit_cost;
        check_float "coverage" r1.Sampling.fraction r.Sampling.fraction)
      rest
  | [] -> ()

let test_beacon_jobs_invariant () =
  let pop = Pop.make_preset `Pop15 ~seed:1 in
  let routers = Array.of_list (Pop.routers pop) in
  let rng = Prng.create 7 in
  Prng.shuffle rng routers;
  let vb = List.sort compare (Array.to_list (Array.sub routers 0 10)) in
  let probes = Active.compute_probes ~targets:vb pop.Pop.graph ~candidates:vb in
  let runs =
    List.map
      (fun jobs -> Active.place_ilp ~options:(opts jobs) probes ~candidates:vb)
      jobs_list
  in
  match runs with
  | r1 :: rest ->
    List.iter
      (fun (r : Active.placement) ->
        Alcotest.(check (list int)) "beacons" r1.Active.beacons r.Active.beacons)
      rest
  | [] -> ()

(* ---------- chaos ladder under parallel solves ---------- *)

let with_chaos seed f =
  let saved = Chaos.seed () in
  Chaos.set_seed (Some seed);
  Fun.protect ~finally:(fun () -> Chaos.set_seed saved) f

let test_chaos_ladder_jobs_invariant () =
  (* the degradation ladder must land on the same rung with the same
     answer whatever the domain count: the wave scheduler pins the
     chaos draws that feed the solver (deadline compression at solve
     entry, per-node cost corruption at merge) to scheduling-
     independent points *)
  let pop = Pop.make_preset `Pop10 ~seed:2 in
  let inst = Instance.of_pop pop ~seed:(2 * 131) in
  let outcomes =
    List.map
      (fun jobs ->
        with_chaos 1305 (fun () ->
            let o = Resilient.solve_ppm ~k:1.0 ~options:(opts jobs) inst in
            (o.Resilient.rung, o.Resilient.value.Passive.monitors)))
      jobs_list
  in
  match outcomes with
  | (rung1, mon1) :: rest ->
    List.iter
      (fun (rung, mon) ->
        Alcotest.(check string) "rung" rung1 rung;
        Alcotest.(check (list int)) "monitors" mon1 mon)
      rest
  | [] -> ()

(* ---------- the shared incumbent cell ---------- *)

let test_incumbent_stress () =
  (* 8 domains race to publish pre-drawn candidates; whatever the
     interleaving, the cell must converge to the global minimum under
     the exact (score, key) order — the property the wave scheduler's
     incumbent filtering rests on *)
  let domains = 8 in
  let per_domain = 10_000 in
  let parent = Prng.create 9090 in
  let batches =
    Array.init domains (fun _ ->
        let rng = Prng.split parent in
        Array.init per_domain (fun i ->
            {
              Mip.Incumbent.score = float_of_int (Prng.int rng 500);
              key = (Prng.int rng 1000, i land 1);
              x = [| float_of_int i |];
            }))
  in
  let expected =
    Array.fold_left
      (fun acc batch ->
        Array.fold_left
          (fun acc c ->
            match acc with
            | None -> Some c
            | Some best ->
              if Mip.Incumbent.better c best then Some c else Some best)
          acc batch)
      None batches
  in
  let cell = Mip.Incumbent.create () in
  let workers =
    Array.map
      (fun batch ->
        Domain.spawn (fun () ->
            Array.iter
              (fun c -> ignore (Mip.Incumbent.publish cell c))
              batch))
      batches
  in
  Array.iter Domain.join workers;
  match (Mip.Incumbent.get cell, expected) with
  | Some got, Some want ->
    check_float "minimum score" want.Mip.Incumbent.score
      got.Mip.Incumbent.score;
    Alcotest.(check (pair int int)) "minimum key" want.Mip.Incumbent.key
      got.Mip.Incumbent.key
  | None, _ -> Alcotest.fail "cell empty after publishes"
  | _, None -> Alcotest.fail "no candidates drawn"

(* the wave scheduler is the only one, so [deterministic = false] must
   fail loudly rather than silently run it anyway *)
let test_async_rejected () =
  let options = { Mip.default_options with Mip.deterministic = false } in
  let rejected what f =
    match f () with
    | (_ : Mip.result) -> Alcotest.fail (what ^ " accepted the option")
    | exception Invalid_argument _ -> ()
  in
  rejected "solve" (fun () -> Mip.solve ~options (random_model (Prng.create 3)));
  rejected "resume" (fun () -> Mip.resume ~options "unused.ckpt")

let suite =
  [
    Alcotest.test_case "random models jobs-invariant" `Quick
      test_random_models_jobs_invariant;
    Alcotest.test_case "wave size orthogonal to jobs" `Quick
      test_wave_size_changes_tree_not_correctness;
    Alcotest.test_case "ppm jobs-invariant" `Quick test_ppm_jobs_invariant;
    Alcotest.test_case "ppme jobs-invariant" `Quick test_ppme_jobs_invariant;
    Alcotest.test_case "beacon ilp jobs-invariant" `Quick
      test_beacon_jobs_invariant;
    Alcotest.test_case "chaos ladder jobs-invariant" `Quick
      test_chaos_ladder_jobs_invariant;
    Alcotest.test_case "incumbent cell 8-domain stress" `Quick
      test_incumbent_stress;
    Alcotest.test_case "deterministic = false rejected" `Quick
      test_async_rejected;
  ]
