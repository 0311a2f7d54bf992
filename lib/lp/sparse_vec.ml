type t = {
  v : float array;
  mutable idx : int array; (* first [n] entries are the pattern *)
  mutable n : int;
  mark : Bytes.t; (* membership flag per position *)
}

let create dim =
  {
    v = Array.make (max dim 1) 0.0;
    idx = Array.make (max dim 1) 0;
    n = 0;
    mark = Bytes.make (max dim 1) '\000';
  }

let dim t = Array.length t.v

let clear t =
  for k = 0 to t.n - 1 do
    let i = t.idx.(k) in
    t.v.(i) <- 0.0;
    Bytes.unsafe_set t.mark i '\000'
  done;
  t.n <- 0

let push t i =
  if Bytes.unsafe_get t.mark i = '\000' then begin
    Bytes.unsafe_set t.mark i '\001';
    (* idx is sized to the dimension and positions are unique, so the
       pattern can never overflow *)
    t.idx.(t.n) <- i;
    t.n <- t.n + 1
  end

let set t i x =
  push t i;
  t.v.(i) <- x

let add t i x =
  push t i;
  t.v.(i) <- t.v.(i) +. x

let get t i = t.v.(i)

let raw t = t.v

let nnz t = t.n

let nth t k = t.idx.(k)

let iter t f =
  for k = 0 to t.n - 1 do
    let i = t.idx.(k) in
    let x = t.v.(i) in
    if x <> 0.0 then f i x
  done

let rescan t =
  (* forget the old pattern without zeroing values, then pick up
     whatever the bulk write left behind *)
  for k = 0 to t.n - 1 do
    Bytes.unsafe_set t.mark t.idx.(k) '\000'
  done;
  t.n <- 0;
  for i = 0 to Array.length t.v - 1 do
    if t.v.(i) <> 0.0 then begin
      Bytes.unsafe_set t.mark i '\001';
      t.idx.(t.n) <- i;
      t.n <- t.n + 1
    end
  done
