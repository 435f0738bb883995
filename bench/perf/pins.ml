(* The benchmark's pinned inputs.  Every run recomputes these digests and
   refuses to measure when one differs, so a change to lib/workloads or to
   Corpus_gen cannot silently move the baseline: it has to be made as a
   change of the benchmark, updating these values.

   [workloads]: Exp_data.workload_digest of each MediaBench-analogue program
   (its source and its profiling, timing and drift inputs).
   [corpus]: Bench.corpus_digest of the default-size corpus of seeds 1 and 2
   (seed 1 is used while developing, seed 2 is held out for claims). *)

let workloads =
  [ ("adpcm", "a12391ae934fa03498658969ddaa60fd");
    ("epic", "3cc321127716938b46b84fe37a7f6ca4");
    ("g721_dec", "f4171702e332036b2f53e86bb92012d5");
    ("g721_enc", "2286141f874c0206d9edcc0618c20284");
    ("gsm", "7f77691dde056480d2502acfa82e9ab5");
    ("jpeg_dec", "7b61faa8784634fa34cc44ea9e457d4f");
    ("jpeg_enc", "619c388a5b2f3ac41439a5c68bf65a37");
    ("mpeg2dec", "34bf1dd7bd68d5b2855bc92f234fe2a9");
    ("mpeg2enc", "a84fab6ca07d72b1fa98054017a251a8");
    ("pgp", "0566dbe042b8acf9b8e36abbe0833847");
    ("rasta", "cfa429fefe5c5cb9bde67095dd090dae") ]

let corpus =
  [ (1, "a6055ba74c6edf6da279971a28040d6d"); (2, "b924bc36a5d332fbd56fa348c7d10a0c") ]
