(** Building arrays too large for the minor heap without forcing a minor
    collection.

    OCaml 5.1 allocates an array of more than 256 words directly in the
    major heap, and [Array.make n v] with a young block [v] then forces a
    minor collection, to promote [v] before the array points at it.
    [Array.init], [Array.of_list] and [Array.map] fill the new array with
    their first element, which is usually young, so each such call on a
    long input costs a collection — and resets the GC's schedule at that
    point. These functions fill the array with [fill] first, then store
    each element. [fill] must be long-lived: a module-level value or a
    constant, never one just built. It is never read back. *)

val init : fill:'a -> int -> (int -> 'a) -> 'a array
(** [init ~fill n f] is [Array.init n f]. *)

val of_list : fill:'a -> 'a list -> 'a array
(** [of_list ~fill l] is [Array.of_list l]. *)

val map : fill:'b -> ('a -> 'b) -> 'a array -> 'b array
(** [map ~fill f a] is [Array.map f a]. *)
