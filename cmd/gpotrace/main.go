// Command gpotrace summarizes a flight-recorder trace written by
// gpoverify/gpobench -trace or dumped by gpod -trace-dump: total states
// and firings reconstructed from the events alone, the hottest
// transitions, per-phase wall clock, the state-discovery rate over
// time, and the abort reason if the run was cancelled.
//
// Usage:
//
//	gpotrace trace.json                # text summary
//	gpotrace -top 20 req-1.trace.json  # a gpod abort dump, longer table
//	gpotrace -json trace.json          # machine-readable summary
//
// Every trace is Chrome trace JSON; the same files open visually in
// Perfetto (ui.perfetto.dev) or chrome://tracing. A file that does not
// parse (an older JSONL dump included) exits non-zero.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/obs/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "gpotrace:", err)
		os.Exit(1)
	}
}

// run is the whole command: args are the command line without the
// program name, and everything the command prints goes to stdout. A
// malformed command line exits 2 with the usage, like flag does.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("gpotrace", flag.ExitOnError)
	var (
		top    = fs.Int("top", 10, "rows in the top-transitions table")
		asJSON = fs.Bool("json", false, "print the summary as JSON instead of text")
	)
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: gpotrace [flags] <trace-file>")
		fs.PrintDefaults()
	}
	fs.Parse(args)
	if fs.NArg() != 1 {
		fs.Usage()
		os.Exit(2)
	}

	d, err := trace.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	s := trace.Summarize(d, *top)
	if *asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(s)
	}
	s.WriteText(stdout)
	return nil
}
