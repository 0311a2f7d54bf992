(* Sparse LU with Markowitz pivoting, threshold partial pivoting and a
   product-form eta file. See the .mli for the index-space contract.

   Factorization: Gaussian elimination on a row-wise copy of the
   basis. At step k a pivot (p, q) is chosen among the shortest active
   columns by Markowitz cost, subject to |a_pq| >= tau * max|a_.q|;
   row p then eliminates every other row with an entry in column q.
   The recorded elimination ops are the L factor (B = L1..Lm U), the
   surviving rows are U in pivot order.

   Every step costs in proportion to the nonzeros it touches, never to
   m: exact column counts live in per-count bitsets, so the shortest
   columns come out without a scan; column adjacency lists are
   maintained lazily (stale entries are dropped on scan); and a row
   update visits only the pivot row's columns, in place, with an O(1)
   column lookup on long rows. Only the fallback for when every
   shortest candidate is numerically dead scans all m columns. *)

exception Singular

let tau = 0.1 (* threshold partial pivoting factor *)

let singular_tol = 1e-12 (* a column whose largest entry is below this is dead *)

let drop_tol = 1e-13 (* elimination entries below this are discarded *)

type eta = {
  e_r : int; (* pivot basis position *)
  e_piv : float;
  e_idx : int array; (* other positions touched, with their alpha values *)
  e_val : float array;
}

type t = {
  m : int;
  (* L ops in elimination order: source row, target rows, multipliers *)
  l_src : int array;
  l_tgt : int array array;
  l_mul : float array array;
  (* U in pivot order: pivot row/position/value plus the row remainder *)
  perm_r : int array;
  perm_c : int array;
  u_piv : float array;
  u_cols : int array array; (* basis positions, pivotal at later steps *)
  u_val : float array array;
  basis_nnz : int;
  factor_nnz : int;
  mutable etas : eta array;
  mutable n_eta : int;
  mutable eta_nnz : int;
  mutable truncations : int; (* truncations that dropped etas: stamps marks *)
}

type stats = {
  basis_nnz : int;
  factor_nnz : int;
  eta_count : int;
  eta_nnz : int;
}

(* --- rows of the active matrix --------------------------------------- *)

(* A row is updated where it stands: an eliminated or cancelled entry
   becomes a hole (column -1) and fills are appended, so the surviving
   entries keep their order — the order U inherits and ftran sums in.
   A row longer than [long_row] also carries a column -> slot map,
   which makes every lookup O(1) on the dense rows that are a target
   at almost every elimination step. *)
type row_buf = {
  mutable cols : int array; (* column per slot, -1 for a hole *)
  mutable vals : float array;
  mutable len : int; (* slots in use, holes included *)
  mutable live : int; (* entries that are not holes *)
  mutable slot : int array; (* column -> slot or -1 once long, else [||] *)
  mutable swept : bool; (* original entries below drop_tol dropped *)
}

(* The map costs an m-sized array per long row, the scan a pass over
   the row per lookup. The lu_factor share of the solve, perfbench
   --trace 1, two runs each on a 2-core VM, at cutoffs 32 / 64 / 200 /
   no map: mip-waxman450 0.41 / 0.43 / 0.42 / 0.52, lp-relax
   0.24 / 0.23 / 0.26 / 0.26. *)
let long_row = 64

let row_create () =
  {
    cols = Array.make 4 0;
    vals = Array.make 4 0.0;
    len = 0;
    live = 0;
    slot = [||];
    swept = false;
  }

let row_push rb c v =
  if rb.len = Array.length rb.cols then begin
    let n = 2 * rb.len in
    let cols = Array.make n 0 and vals = Array.make n 0.0 in
    Array.blit rb.cols 0 cols 0 rb.len;
    Array.blit rb.vals 0 vals 0 rb.len;
    rb.cols <- cols;
    rb.vals <- vals
  end;
  rb.cols.(rb.len) <- c;
  rb.vals.(rb.len) <- v;
  if Array.length rb.slot > 0 then rb.slot.(c) <- rb.len;
  rb.len <- rb.len + 1;
  rb.live <- rb.live + 1

let row_remove rb s =
  if Array.length rb.slot > 0 then rb.slot.(rb.cols.(s)) <- -1;
  rb.cols.(s) <- -1;
  rb.live <- rb.live - 1

let row_slot rb c =
  if Array.length rb.slot > 0 then rb.slot.(c)
  else
    let rec go k =
      if k >= rb.len then -1 else if rb.cols.(k) = c then k else go (k + 1)
    in
    go 0

let row_find rb c =
  let s = row_slot rb c in
  if s < 0 then 0.0 else rb.vals.(s)

(* squeeze the holes out, keeping the entry order *)
let row_compact rb =
  let w = ref 0 in
  for k = 0 to rb.len - 1 do
    let c = rb.cols.(k) in
    if c >= 0 then begin
      rb.cols.(!w) <- c;
      rb.vals.(!w) <- rb.vals.(k);
      if Array.length rb.slot > 0 then rb.slot.(c) <- !w;
      incr w
    end
  done;
  rb.len <- !w

let row_make_long rb m =
  rb.slot <- Array.make m (-1);
  for k = 0 to rb.len - 1 do
    if rb.cols.(k) >= 0 then rb.slot.(rb.cols.(k)) <- k
  done

type int_buf = { mutable a : int array; mutable n : int }

let ib_create () = { a = Array.make 4 0; n = 0 }

let ib_push b i =
  if b.n = Array.length b.a then begin
    let a = Array.make (2 * b.n) 0 in
    Array.blit b.a 0 a 0 b.n;
    b.a <- a
  end;
  b.a.(b.n) <- i;
  b.n <- b.n + 1

let word = Sys.int_size (* bits per count-bucket word *)

(* --- factorization ------------------------------------------------- *)

let factor ~m ~col =
  if m = 0 then
    {
      m = 0;
      l_src = [||];
      l_tgt = [||];
      l_mul = [||];
      perm_r = [||];
      perm_c = [||];
      u_piv = [||];
      u_cols = [||];
      u_val = [||];
      basis_nnz = 0;
      factor_nnz = 0;
      etas = [||];
      n_eta = 0;
      eta_nnz = 0;
      truncations = 0;
    }
  else begin
    let rows = Array.init m (fun _ -> row_create ()) in
    let collist = Array.init m (fun _ -> ib_create ()) in
    let colcount = Array.make m 0 in
    let row_active = Array.make m true in
    let col_active = Array.make m true in
    let basis_nnz = ref 0 in
    for c = 0 to m - 1 do
      col c (fun i a ->
          if a <> 0.0 then begin
            row_push rows.(i) c a;
            ib_push collist.(c) i;
            colcount.(c) <- colcount.(c) + 1;
            incr basis_nnz
          end)
    done;
    Array.iter (fun rb -> if rb.live > long_row then row_make_long rb m) rows;
    (* Exact count buckets: bit c of [bucket.(k)] is set iff column c
       is active with k > 0 entries, so the lowest-indexed columns of
       the smallest count come out first, as a scan would meet them.
       No nonempty bucket lies below [min_count]. [flip c k d] moves
       column c in (d = 1) or out (d = -1) of bucket k. *)
    let bucket = Array.make (m + 1) [||] in
    let bucket_pop = Array.make (m + 1) 0 in
    let min_count = ref (m + 1) in
    let flip c k d =
      if k > 0 then begin
        if Array.length bucket.(k) = 0 then
          bucket.(k) <- Array.make ((m / word) + 1) 0;
        let b = bucket.(k) in
        b.(c / word) <- b.(c / word) lxor (1 lsl (c mod word));
        bucket_pop.(k) <- bucket_pop.(k) + d;
        if k < !min_count then min_count := k
      end
    in
    let set_count c k =
      if col_active.(c) then begin
        flip c colcount.(c) (-1);
        flip c k 1
      end;
      colcount.(c) <- k
    in
    for c = 0 to m - 1 do
      flip c colcount.(c) 1
    done;
    (* per-column scan dedup (stale entries can duplicate a live one) *)
    let seen = Bytes.make m '\000' in
    (* live rows of the column being evaluated, refreshed by compact *)
    let live_rows = ib_create () in
    (* Drop stale/duplicate entries of column q in place; fill
       [live_rows] with the surviving row indices. *)
    let compact q =
      let lst = collist.(q) in
      live_rows.n <- 0;
      let w = ref 0 in
      for k = 0 to lst.n - 1 do
        let i = lst.a.(k) in
        if
          row_active.(i)
          && Bytes.get seen i = '\000'
          && row_find rows.(i) q <> 0.0
        then begin
          Bytes.set seen i '\001';
          lst.a.(!w) <- i;
          incr w;
          ib_push live_rows i
        end
      done;
      lst.n <- !w;
      for k = 0 to live_rows.n - 1 do
        Bytes.set seen live_rows.a.(k) '\000'
      done
    in
    (* Best acceptable pivot of column q: Markowitz cost, ties to the
       larger magnitude. Returns (cost, |a|, row) or None (dead). *)
    let eval_col q =
      compact q;
      let colmax = ref 0.0 in
      for k = 0 to live_rows.n - 1 do
        let a = abs_float (row_find rows.(live_rows.a.(k)) q) in
        if a > !colmax then colmax := a
      done;
      if !colmax < singular_tol then None
      else begin
        let cq = live_rows.n in
        let best = ref (-1) and best_cost = ref max_int and best_abs = ref 0.0 in
        for k = 0 to live_rows.n - 1 do
          let i = live_rows.a.(k) in
          let a = abs_float (row_find rows.(i) q) in
          if a >= tau *. !colmax then begin
            let cost = (rows.(i).live - 1) * (cq - 1) in
            if cost < !best_cost || (cost = !best_cost && a > !best_abs) then begin
              best := i;
              best_cost := cost;
              best_abs := a
            end
          end
        done;
        if !best < 0 then None else Some (!best_cost, !best_abs, !best)
      end
    in
    (* row_i -= mi * row_p, with row_p's U remainder in (uc, uv) and
       its pivot column q: matched entries are updated in place, the
       pivot entry and cancellations become holes, fills go last.
       Updated entries and fills are checked against drop_tol as they
       are written, so after a row's first update only its untouched
       original entries can sit at or below it; one sweep drops them. *)
    let eliminate i mi q uc uv =
      let rb = rows.(i) in
      if 2 * rb.live < rb.len then row_compact rb;
      row_remove rb (row_slot rb q);
      for e = 0 to Array.length uc - 1 do
        let c = uc.(e) in
        let s = row_slot rb c in
        if s >= 0 then begin
          let x = rb.vals.(s) -. (mi *. uv.(e)) in
          if abs_float x > drop_tol then rb.vals.(s) <- x
          else begin
            row_remove rb s;
            set_count c (colcount.(c) - 1)
          end
        end
        else begin
          let x = -.mi *. uv.(e) in
          if abs_float x > drop_tol then begin
            row_push rb c x;
            set_count c (colcount.(c) + 1);
            ib_push collist.(c) i
          end
        end
      done;
      if not rb.swept then begin
        rb.swept <- true;
        for k = 0 to rb.len - 1 do
          let c = rb.cols.(k) in
          if c >= 0 && abs_float rb.vals.(k) <= drop_tol then begin
            row_remove rb k;
            set_count c (colcount.(c) - 1)
          end
        done
      end;
      if Array.length rb.slot = 0 && rb.live > long_row then row_make_long rb m
    in
    let l_src = Array.make m 0 in
    let l_tgt = Array.make m [||] in
    let l_mul = Array.make m [||] in
    let perm_r = Array.make m 0 in
    let perm_c = Array.make m 0 in
    let u_piv = Array.make m 0.0 in
    let u_cols = Array.make m [||] in
    let u_val = Array.make m [||] in
    let factor_nnz = ref m in
    for step = 0 to m - 1 do
      (* candidate columns: up to 4 active ones with the smallest
         exact counts, lowest index first; fall back to scanning every
         active column when all candidates are numerically dead *)
      let pivot = ref None in
      let consider q =
        match eval_col q with
        | None -> ()
        | Some (cost, a, i) -> (
          match !pivot with
          | Some (bc, ba, _, _) when bc < cost || (bc = cost && ba >= a) -> ()
          | _ -> pivot := Some (cost, a, i, q))
      in
      while !min_count <= m && bucket_pop.(!min_count) = 0 do
        incr min_count
      done;
      if !min_count <= m then begin
        let b = bucket.(!min_count) and cand = ref 0 and c = ref 0 in
        while !cand < 4 && !c < m do
          let bits = b.(!c / word) in
          if bits = 0 then c := (!c / word + 1) * word
          else begin
            if bits land (1 lsl (!c mod word)) <> 0 then begin
              consider !c;
              incr cand
            end;
            incr c
          end
        done
      end;
      if !pivot = None then
        for c = 0 to m - 1 do
          if col_active.(c) && colcount.(c) > 0 then consider c
        done;
      match !pivot with
      | None -> raise Singular
      | Some (_, _, p, q) ->
        (* eval_col ran on several candidates; refresh [live_rows] for
           the winning column before eliminating *)
        compact q;
        let prow = rows.(p) in
        let apq = row_find prow q in
        perm_r.(step) <- p;
        perm_c.(step) <- q;
        u_piv.(step) <- apq;
        flip q colcount.(q) (-1);
        col_active.(q) <- false;
        row_active.(p) <- false;
        (* U remainder of row p, and its retirement from the counts *)
        let ulen = prow.live - 1 in
        let uc = Array.make ulen 0 and uv = Array.make ulen 0.0 in
        let w = ref 0 in
        for k = 0 to prow.len - 1 do
          let c = prow.cols.(k) in
          if c >= 0 && c <> q then begin
            uc.(!w) <- c;
            uv.(!w) <- prow.vals.(k);
            incr w;
            set_count c (colcount.(c) - 1)
          end
        done;
        u_cols.(step) <- uc;
        u_val.(step) <- uv;
        factor_nnz := !factor_nnz + ulen;
        (* eliminate the other rows of column q; [live_rows] is still
           the compacted scan of the winning column *)
        let tgt = Array.make (live_rows.n - 1) 0 in
        let mul = Array.make (live_rows.n - 1) 0.0 in
        let t = ref 0 in
        for k = 0 to live_rows.n - 1 do
          let i = live_rows.a.(k) in
          if i <> p then begin
            let mi = row_find rows.(i) q /. apq in
            tgt.(!t) <- i;
            mul.(!t) <- mi;
            incr t;
            eliminate i mi q uc uv
          end
        done;
        l_src.(step) <- p;
        l_tgt.(step) <- tgt;
        l_mul.(step) <- mul;
        factor_nnz := !factor_nnz + Array.length mul
    done;
    {
      m;
      l_src;
      l_tgt;
      l_mul;
      perm_r;
      perm_c;
      u_piv;
      u_cols;
      u_val;
      basis_nnz = !basis_nnz;
      factor_nnz = !factor_nnz;
      etas = [||];
      n_eta = 0;
      eta_nnz = 0;
      truncations = 0;
    }
  end

(* --- solves -------------------------------------------------------- *)

let ftran t ~rhs ~into =
  Sparse_vec.clear into;
  if t.m > 0 then begin
    let bv = Sparse_vec.raw rhs in
    (* apply L^-1 ops in elimination order *)
    for k = 0 to t.m - 1 do
      let tgt = t.l_tgt.(k) in
      if Array.length tgt > 0 then begin
        let x = bv.(t.l_src.(k)) in
        if x <> 0.0 then begin
          let mul = t.l_mul.(k) in
          for j = 0 to Array.length tgt - 1 do
            Sparse_vec.add rhs tgt.(j) (-.mul.(j) *. x)
          done
        end
      end
    done;
    (* back substitution with U, descending pivot order *)
    let xv = Sparse_vec.raw into in
    for k = t.m - 1 downto 0 do
      let acc = ref bv.(t.perm_r.(k)) in
      let uc = t.u_cols.(k) and uv = t.u_val.(k) in
      for j = 0 to Array.length uc - 1 do
        let x = xv.(uc.(j)) in
        if x <> 0.0 then acc := !acc -. (uv.(j) *. x)
      done;
      if !acc <> 0.0 then Sparse_vec.set into t.perm_c.(k) (!acc /. t.u_piv.(k))
    done;
    (* product-form etas, oldest first *)
    for l = 0 to t.n_eta - 1 do
      let e = t.etas.(l) in
      let x = xv.(e.e_r) in
      if x <> 0.0 then begin
        let x = x /. e.e_piv in
        Sparse_vec.set into e.e_r x;
        for j = 0 to Array.length e.e_idx - 1 do
          Sparse_vec.add into e.e_idx.(j) (-.e.e_val.(j) *. x)
        done
      end
    done
  end

let btran t ~rhs ~into =
  Sparse_vec.clear into;
  if t.m > 0 then begin
    let cv = Sparse_vec.raw rhs in
    (* transposed etas, newest first: only the pivot position moves *)
    for l = t.n_eta - 1 downto 0 do
      let e = t.etas.(l) in
      let acc = ref cv.(e.e_r) in
      for j = 0 to Array.length e.e_idx - 1 do
        let x = cv.(e.e_idx.(j)) in
        if x <> 0.0 then acc := !acc -. (e.e_val.(j) *. x)
      done;
      let z = !acc /. e.e_piv in
      if z <> 0.0 || cv.(e.e_r) <> 0.0 then Sparse_vec.set rhs e.e_r z
    done;
    (* forward substitution with U^T, ascending pivot order *)
    for k = 0 to t.m - 1 do
      let x = cv.(t.perm_c.(k)) in
      if x <> 0.0 then begin
        let z = x /. t.u_piv.(k) in
        Sparse_vec.set into t.perm_r.(k) z;
        let uc = t.u_cols.(k) and uv = t.u_val.(k) in
        for j = 0 to Array.length uc - 1 do
          Sparse_vec.add rhs uc.(j) (-.uv.(j) *. z)
        done
      end
    done;
    (* transposed L ops, newest first: only the source row moves *)
    let yv = Sparse_vec.raw into in
    for k = t.m - 1 downto 0 do
      let tgt = t.l_tgt.(k) in
      if Array.length tgt > 0 then begin
        let mul = t.l_mul.(k) in
        let acc = ref 0.0 in
        for j = 0 to Array.length tgt - 1 do
          let x = yv.(tgt.(j)) in
          if x <> 0.0 then acc := !acc +. (mul.(j) *. x)
        done;
        if !acc <> 0.0 then Sparse_vec.add into t.l_src.(k) (-. !acc)
      end
    done
  end

(* --- eta file ------------------------------------------------------ *)

let append_eta t ~r ~alpha =
  let piv = Sparse_vec.get alpha r in
  let count = ref 0 in
  Sparse_vec.iter alpha (fun i _ -> if i <> r then incr count);
  let e_idx = Array.make !count 0 and e_val = Array.make !count 0.0 in
  let w = ref 0 in
  Sparse_vec.iter alpha (fun i a ->
      if i <> r then begin
        e_idx.(!w) <- i;
        e_val.(!w) <- a;
        incr w
      end);
  let e = { e_r = r; e_piv = piv; e_idx; e_val } in
  if t.n_eta = Array.length t.etas then begin
    let cap = max 8 (2 * Array.length t.etas) in
    let etas = Array.make cap e in
    Array.blit t.etas 0 etas 0 t.n_eta;
    t.etas <- etas
  end;
  t.etas.(t.n_eta) <- e;
  t.n_eta <- t.n_eta + 1;
  t.eta_nnz <- t.eta_nnz + !count + 1

let eta_count t = t.n_eta

(* A mark is the eta file's length and fill at one instant. Etas are
   only ever appended, so every eta below a mark stays as it was until
   a truncation drops some of them; [truncations] stamps the marks
   that such a truncation makes meaningless. *)
type mark = { mk_eta : int; mk_nnz : int; mk_truncations : int }

let mark t = { mk_eta = t.n_eta; mk_nnz = t.eta_nnz; mk_truncations = t.truncations }

let truncate t mk =
  if mk.mk_truncations <> t.truncations || mk.mk_eta > t.n_eta then
    invalid_arg "Lu.truncate: the mark does not belong to this eta file";
  if mk.mk_eta < t.n_eta then begin
    t.n_eta <- mk.mk_eta;
    t.eta_nnz <- mk.mk_nnz;
    t.truncations <- t.truncations + 1
  end

let should_refactor ?eta_limit t =
  let limit =
    match eta_limit with
    | Some l -> max 1 l
    | None -> max 32 (min 128 ((t.m / 4) + 16))
  in
  t.n_eta >= limit || t.eta_nnz > 2 * (t.factor_nnz + t.m)

let stats (t : t) =
  {
    basis_nnz = t.basis_nnz;
    factor_nnz = t.factor_nnz;
    eta_count = t.n_eta;
    eta_nnz = t.eta_nnz;
  }
