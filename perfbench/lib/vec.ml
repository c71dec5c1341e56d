(* Growable int array: the compact per-operation records of a run. *)
type t = { mutable a : int array; mutable n : int }

let create () = { a = Array.make 1024 0; n = 0 }

let push v x =
  if v.n = Array.length v.a then begin
    let a = Array.make (2 * v.n) 0 in
    Array.blit v.a 0 a 0 v.n;
    v.a <- a
  end;
  v.a.(v.n) <- x;
  v.n <- v.n + 1

let get v i = if i < v.n then v.a.(i) else invalid_arg "Vec.get"
let length v = v.n
let to_array v = Array.sub v.a 0 v.n
