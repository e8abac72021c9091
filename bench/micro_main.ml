(* Flat-kernel microbench driver.

   Run with:  dune exec bench/micro_main.exe            # timed F1-F4, E1-E2
          or  dune exec bench/micro_main.exe -- --smoke # fast agreement pass
   The timed run prints Bechamel ns/run estimates for the Tree.Flat
   primitives (path walks, batched LCA, scratch reuse, nearest-node
   assignment, the last next to the per-pair scan), then for the
   discrete-event engine kernels (pairing-heap churn, tick chains).
   [--smoke] skips timing and instead checks the pairing heap against a
   stable sort on the bench instance — the cheap gate `make bench-quick`
   (and through it `make check`) runs. *)

let () =
  if Array.exists (( = ) "--smoke") Sys.argv then Micro.smoke_event ()
  else begin
    Micro.run_flat ();
    Micro.run_event ()
  end
