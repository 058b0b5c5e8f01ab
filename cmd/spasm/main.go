// Command spasm assembles, disassembles, lints and natively runs SVR32
// assembly files — the guest-program workbench of the SuperPin
// reproduction.
//
//	spasm file.svasm            # assemble, print a summary
//	spasm -d file.svasm         # assemble and disassemble
//	spasm -lint file.svasm      # run the static-analysis verifier
//	spasm -run file.svasm       # assemble and run natively; prints exit code
//
// -lint runs the static-analysis verifier (internal/sa) over the
// assembled image and prints every diagnostic with its source line.
// Errors (bad branch targets, truncated images, stack-imbalanced loops:
// the image is malformed) exit non-zero; warnings alone (uninitialized
// reads, provable self-modifying stores, the call-graph rules) exit
// zero. No run mode verifies the image: a bad word faults only when it
// executes.
package main

import (
	"flag"
	"fmt"
	"os"

	"superpin/internal/asm"
	"superpin/internal/core"
	"superpin/internal/kernel"
	"superpin/internal/sa"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "spasm:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("spasm", flag.ContinueOnError)
	var (
		disasm = fs.Bool("d", false, "print disassembly")
		lint   = fs.Bool("lint", false, "run the static-analysis verifier; errors exit non-zero")
		doRun  = fs.Bool("run", false, "run the program natively on the simulated machine")
		cpus   = fs.Int("cpus", 1, "CPUs of the simulated machine for -run")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: spasm [-d] [-lint] [-run] file.svasm")
	}
	file := fs.Arg(0)
	src, err := os.ReadFile(file)
	if err != nil {
		return err
	}
	prog, err := asm.Assemble(string(src))
	if err != nil {
		return err
	}
	fmt.Printf("assembled %d bytes in %d segment(s), entry %#08x\n",
		prog.Size(), len(prog.Segments), prog.Entry)
	if *disasm {
		fmt.Print(asm.Disassemble(prog))
	}
	if *lint {
		if err := runLint(file, prog); err != nil {
			return err
		}
	}
	if *doRun {
		cfg := kernel.DefaultConfig()
		cfg.CPUs = *cpus
		cfg.MaxCycles = 100_000_000_000
		res, err := core.RunNative(cfg, prog, 0)
		if err != nil {
			return err
		}
		os.Stdout.Write(res.Stdout)
		fmt.Printf("exit %d after %d instructions (%d cycles, %.3f vsec)\n",
			res.ExitCode, res.Ins, res.Time, cfg.Cost.Seconds(res.Time))
	}
	return nil
}

// runLint runs the verifier over the assembled image and prints every
// diagnostic, resolving addresses to source lines through the
// assembler's line map. Verifier errors fail the lint; warnings alone
// do not.
func runLint(file string, prog *asm.Program) error {
	an := sa.Analyze(prog)
	diags := an.Diags()
	for _, d := range diags {
		if line, ok := prog.Lines[d.Addr]; ok {
			fmt.Printf("%s:%d: %s: %s: %s (at %#08x)\n", file, line, d.Sev, d.Code, d.Msg, d.Addr)
		} else {
			fmt.Printf("%s: %s: %s: %s at %#08x\n", file, d.Sev, d.Code, d.Msg, d.Addr)
		}
	}
	errs := an.Errors()
	fmt.Printf("lint: %d block(s), %d error(s), %d warning(s)\n",
		an.NumBlocks(), len(errs), len(diags)-len(errs))
	if len(errs) > 0 {
		return fmt.Errorf("lint failed with %d error(s)", len(errs))
	}
	return nil
}
