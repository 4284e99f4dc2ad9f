// Command gpotrace summarizes a flight-recorder trace written by
// gpoverify/gpobench -trace or dumped by gpod -trace-dump: total states
// and firings reconstructed from the events alone, the hottest
// transitions, per-phase wall clock, the state-discovery rate over
// time, and the abort reason if the run was cancelled.
//
// Usage:
//
//	gpotrace trace.json                # Chrome/Perfetto trace
//	gpotrace -top 20 dump.trace.jsonl  # JSONL dump, longer table
//	gpotrace -json trace.json          # machine-readable summary
//
// Both formats are auto-detected. The same files open visually in
// Perfetto (ui.perfetto.dev) or chrome://tracing.
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
		top     = fs.Int("top", 10, "rows in the top-transitions table")
		asJSON  = fs.Bool("json", false, "print the summary as JSON instead of text")
		summary = fs.Bool("summary", true, "print the summary (disable to just validate the file)")
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
	switch {
	case *asJSON:
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(s)
	case *summary:
		s.WriteText(stdout)
	default:
		fmt.Fprintf(stdout, "gpotrace: %s: valid (%d tracks, %d events)\n", fs.Arg(0), s.Tracks, s.Events)
	}
	return nil
}
