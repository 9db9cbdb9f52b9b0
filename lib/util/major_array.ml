let init ~fill n f =
  let a = Array.make n fill in
  for i = 0 to n - 1 do
    a.(i) <- f i
  done;
  a

let of_list ~fill l =
  let a = Array.make (List.length l) fill in
  List.iteri (fun i x -> a.(i) <- x) l;
  a

let map ~fill f a = init ~fill (Array.length a) (fun i -> f a.(i))
