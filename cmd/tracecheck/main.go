// Command tracecheck validates and summarizes a Chrome trace_event
// JSON file written by sprflow -trace: it proves the file is
// well-formed (parseable, non-empty, complete events with sane
// timestamps) and prints a per-span-name table — counts and total
// time — so a trace can be sanity-checked without opening Perfetto.
//
// Usage:
//
//	tracecheck trace.json [-require campaign.point,flow.run] [-require-arg node=w0,node=w1]
//
// Exits nonzero on a malformed or empty trace, when a -require'd span
// name is absent, or when no event carries a -require-arg'd key=value
// arg (how scripts/check.sh obs proves a stitched multi-node trace has
// spans from every node). scripts/check.sh trace uses it to gate the
// end-to-end -trace flag.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
)

type event struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"`
	Dur  float64           `json:"dur"`
	Tid  uint64            `json:"tid"`
	Args map[string]string `json:"args"`
}

type traceDoc struct {
	TraceEvents  []event `json:"traceEvents"`
	DroppedSpans int64   `json:"droppedSpans"`
}

func main() {
	os.Exit(run())
}

func run() int {
	require := flag.String("require", "", "comma-separated span names that must appear")
	requireArg := flag.String("require-arg", "", "comma-separated key=value pairs; each must appear in some event's args (e.g. node=w0,node=w1 proves spans from both nodes landed in the stitched trace)")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: tracecheck [-require a,b] trace.json")
		return 2
	}
	path := flag.Arg(0)
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tracecheck: %v\n", err)
		return 1
	}
	var doc traceDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		fmt.Fprintf(os.Stderr, "tracecheck: %s is not valid trace JSON: %v\n", path, err)
		return 1
	}
	if len(doc.TraceEvents) == 0 {
		fmt.Fprintf(os.Stderr, "tracecheck: %s has no trace events\n", path)
		return 1
	}

	counts := map[string]int{}
	totalUs := map[string]float64{}
	lanes := map[uint64]struct{}{}
	argSeen := map[string]int{}
	for i, ev := range doc.TraceEvents {
		if ev.Name == "" || ev.Ph != "X" || ev.Ts < 0 || ev.Dur < 0 || ev.Tid == 0 {
			fmt.Fprintf(os.Stderr, "tracecheck: malformed event %d: %+v\n", i, ev)
			return 1
		}
		counts[ev.Name]++
		totalUs[ev.Name] += ev.Dur
		lanes[ev.Tid] = struct{}{}
		for k, v := range ev.Args {
			argSeen[k+"="+v]++
		}
	}

	if *require != "" {
		missing := false
		for _, name := range strings.Split(*require, ",") {
			name = strings.TrimSpace(name)
			if name != "" && counts[name] == 0 {
				fmt.Fprintf(os.Stderr, "tracecheck: required span %q absent from %s\n", name, path)
				missing = true
			}
		}
		if missing {
			return 1
		}
	}
	if *requireArg != "" {
		missing := false
		for _, pair := range strings.Split(*requireArg, ",") {
			pair = strings.TrimSpace(pair)
			if pair != "" && argSeen[pair] == 0 {
				fmt.Fprintf(os.Stderr, "tracecheck: no event with arg %q in %s\n", pair, path)
				missing = true
			}
		}
		if missing {
			return 1
		}
	}

	names := make([]string, 0, len(counts))
	for n := range counts {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("%s: %d events, %d span names, %d lanes, %d dropped\n",
		path, len(doc.TraceEvents), len(names), len(lanes), doc.DroppedSpans)
	for _, n := range names {
		fmt.Printf("  %-24s %6d spans  %12.1f us total\n", n, counts[n], totalUs[n])
	}
	return 0
}
