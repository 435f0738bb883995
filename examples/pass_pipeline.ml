(* Pass pipeline demo: drive the squash pipeline pass by pass instead of
   through Squash.run — trace every stage, validate the IR after each one,
   emit the machine-readable stats, and drop a pass and gate the image
   through the options and the gate passes.

     dune exec examples/pass_pipeline.exe *)

let source =
  {|
// Hot checksum loop; cold formatting and error paths.
int table[64];

int checksum(int n) {
  int i; int acc;
  acc = 7;
  for (i = 0; i < n; i = i + 1) acc = (acc * 31 + table[i & 63]) & 65535;
  return acc;
}

int format_report(int v) {
  putint(v / 1000);
  putint(v % 1000);
  return v;
}

int fail(int code) {
  putint(-code);
  exit(code);
  return 0;
}

int main() {
  int rounds; int i; int acc;
  rounds = getc();
  if (rounds < 0) fail(1);
  for (i = 0; i < 64; i = i + 1) table[i] = (i * 53) & 255;
  acc = 0;
  for (i = 0; i < rounds; i = i + 1) acc = acc + checksum(64);
  if (acc == 424242) format_report(acc);
  putint(acc);
  return 0;
}
|}

let () =
  let prog = fst (Squeeze.run (Minic.compile_exn source)) in
  let profile, _ = Profile.collect prog ~input:"\004" in

  (* 1. The standard pipeline, traced, with per-pass validation: exactly
     what `squashc squash --trace-passes --check-each` runs. *)
  print_endline "=== standard pipeline (traced, validated after every pass) ===";
  let state = Pass.init prog profile in
  let state, stats =
    Pipeline.execute ~check_each:true ~trace:print_endline
      ~passes:(Pipeline.of_options Pass.default_options) state
  in
  print_newline ();
  print_string (Pipeline.render_stats stats);

  (* 2. The same stats, machine-readable — what --stats-json writes. *)
  print_endline "\n=== stats as JSON ===";
  print_endline (Report.Json.to_string (Pipeline.stats_json stats));

  (* 3. Configurability goes through the options: the passes always run in
     paper order, and [unswitch = false] drops the unswitch pass.  The
     image gate is two more passes, appended at the end. *)
  print_endline "\n=== without unswitching, then the image gate ===";
  let options = { Pass.default_options with Pass.unswitch = false } in
  let passes =
    Pipeline.of_options options @ [ Pipeline.lint_pass; Pipeline.prove_pass ]
  in
  print_endline (String.concat " -> " (Pipeline.names passes));
  assert (not (List.mem "unswitch" (Pipeline.names passes)));
  let state2, _ = Pipeline.execute ~passes (Pass.init ~options prog profile) in
  let words st = Rewrite.total_words (Pass.get_squashed ~who:"demo" st) in
  Printf.printf "with unswitch: %d words; without: %d words\n" (words state)
    (words state2);
  (match state2.Pass.proof with
  | Some r ->
    assert (r.Prove.proved = r.Prove.blocks);
    Printf.printf "gate: lint clean, %d/%d block proofs\n" r.Prove.proved
      r.Prove.blocks
  | None -> assert false);

  (* 4. The squashed program still behaves identically. *)
  let sq = Pass.get_squashed ~who:"demo" state in
  let baseline = Vm.run (Vm.of_image (Layout.emit prog) ~input:"\004") in
  let outcome, rstats = Runtime.run sq ~input:"\004" in
  assert (outcome.Vm.output = baseline.Vm.output);
  Printf.printf "\nsquashed run: identical output, %d decompressions\n"
    rstats.Runtime.decompressions
