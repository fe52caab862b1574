(* Growable array (amortized O(1) push), for event accumulation in long
   runs: 10⁵–10⁶ trace events per execution want neither list reversal
   passes nor 3-words-per-element list overhead.  The backing array is
   grown by doubling, using the pushed element as filler so no [Obj]
   tricks or option boxing are needed. *)

type 'a t = { mutable data : 'a array; mutable len : int }

let create () = { data = [||]; len = 0 }
let length t = t.len

let push t x =
  let cap = Array.length t.data in
  if t.len = cap then begin
    let grown = Array.make (max 8 (2 * cap)) x in
    Array.blit t.data 0 grown 0 t.len;
    t.data <- grown
  end;
  t.data.(t.len) <- x;
  t.len <- t.len + 1

let iter t ~f =
  for i = 0 to t.len - 1 do
    f t.data.(i)
  done

let to_list t =
  let rec go i acc = if i < 0 then acc else go (i - 1) (t.data.(i) :: acc) in
  go (t.len - 1) []
