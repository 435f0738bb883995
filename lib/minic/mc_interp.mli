(** A reference interpreter for MiniC, evaluating the resolved IR of
    {!Mc_sema} directly.

    It shares nothing with the code generator, the ISA or the simulator —
    only the language's specification (32-bit wrapping arithmetic, the
    byte-addressed memory model, the builtins) — so it serves as an
    independent semantics to differential-test the whole compilation
    pipeline against: for any address-insensitive program,
    {!run_source} and compiling + running on the VM must produce the same
    output and exit code.

    Limits: [setjmp]/[longjmp] are not supported (raising
    {!Unsupported}), and programs that observe concrete addresses (e.g.
    printing an [sbrk] result) may legitimately differ from the VM. *)

exception Runtime_error of string
exception Unsupported of string

type outcome = { exit_code : int; output : string }

val run_source : ?fuel:int -> string -> input:string -> outcome
(** Parse, analyse and run MiniC source text's [main].  [fuel] bounds the
    number of evaluated statements and expressions (default 100 million).
    Raises like {!Minic.compile_exn} on front-end errors.
    @raise Runtime_error on division by zero, out-of-range memory access or
    fuel exhaustion. *)
