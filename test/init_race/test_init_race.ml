(* Two domains each create a database, wait at an atomic barrier, and
   then begin their first transactions together. The engine's record-cost
   constants used to be lazy values forced by the first [begin_txn];
   forcing one lazy from two domains at once raises
   [CamlinternalLazy.Undefined]. *)

open Ariesrh_core

let () =
  let waiting = Atomic.make 2 in
  let worker () =
    let db = Db.create (Config.make ~n_objects:8 ()) in
    Atomic.decr waiting;
    while Atomic.get waiting > 0 do
      Domain.cpu_relax ()
    done;
    ignore (Db.begin_txn db)
  in
  List.iter Domain.join [ Domain.spawn worker; Domain.spawn worker ];
  print_endline "two domains began their first transactions"
