(* The benchmark's yardstick: fixed work of the kinds the measured
   commands do (allocation, sorting, hashing, pointer chasing), with no
   code from the repository, so that no change to the program moves its
   time. It prints a checksum so that the work cannot be skipped. *)

let () =
  let n = 200_000 in
  let state = ref 12345 in
  let next () =
    state := ((!state * 1103515245) + 12345) land 0x3fffffff;
    !state
  in
  let sum = ref 0 in
  for _ = 1 to 2 do
    let a = Array.init n (fun _ -> next ()) in
    Array.sort compare a;
    let h = Hashtbl.create 1024 in
    Array.iter (fun x -> Hashtbl.replace h (x land 0xffff) x) a;
    let pairs = Array.to_list (Array.mapi (fun i x -> (x, i)) a) in
    let succ = Array.init n (fun _ -> next () mod n) in
    let p = ref 0 in
    for _ = 1 to 2_000_000 do
      p := succ.(!p)
    done;
    sum := !sum + Hashtbl.length h + List.length pairs + !p
  done;
  Printf.printf "%d\n" !sum
