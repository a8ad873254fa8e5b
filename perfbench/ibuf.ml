(* A growable int buffer for samples recorded on the hot path. It lives
   outside the OCaml heap, so a long run's samples add nothing to the
   garbage collector's marking work in the program being measured. *)

type t = { mutable a : (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t; mutable n : int }

let create () = { a = Bigarray.Array1.create Bigarray.int Bigarray.c_layout 4096; n = 0 }

let push t x =
  if t.n = Bigarray.Array1.dim t.a then begin
    let a = Bigarray.Array1.create Bigarray.int Bigarray.c_layout (2 * t.n) in
    Bigarray.Array1.blit t.a (Bigarray.Array1.sub a 0 t.n);
    t.a <- a
  end;
  Bigarray.Array1.unsafe_set t.a t.n x;
  t.n <- t.n + 1

let length t = t.n

let get t i =
  if i < 0 || i >= t.n then invalid_arg "Ibuf.get";
  Bigarray.Array1.unsafe_get t.a i
