// Command goldenfence is the fence around a deliberate re-recording of
// testdata/golden_qor.txt. It compares the golden file before and after
// and fails unless the difference is the one the change was allowed to
// make; what it prints goes into CHANGES.md.
//
//	goldenfence -columns before.txt after.txt
//
// is for a commit that only adds columns: the same rows, and every field a
// row had before unchanged.
//
//	goldenfence before.txt after.txt
//
// is the fence of the re-record that put a global placement step in front
// of both annealers and made the anneal a short, cold detailed placer. It
// fails unless
//
//  1. both files hold the same rows, in the same order, with the same
//     columns;
//  2. no synth/* row moved and every init= is unchanged (the scatter still
//     draws from math/rand and is the global step's start);
//  3. every place/*/w0/* row and every flow/*/serial row has HPWL <= 1.000x
//     the row it replaces;
//  4. every place/*/w1/* row equals its /w2/ twin in every field, and every
//     engine row (w1, w2, pw2rt4) has HPWL <= 1.10x the new w0 / serial row
//     beside it;
//  5. area= is unchanged on every flow/* row, and the mean WNS of the serial
//     flow rows is no worse than before.
//
// Printed, not bounded: per-row WNS and met (at equal HPWL a row moves a
// few hundred ps between two valid placements — the paper's Fig. 3 noise,
// not a signal) and the pw2rt4 rows' mean WNS. Each re-record rewrites these
// rules for its own change; git keeps the earlier ones.
//
//	git show HEAD:testdata/golden_qor.txt > /tmp/before.txt
//	go test -run TestGoldenQoR -update . && go run ./scripts/goldenfence /tmp/before.txt testdata/golden_qor.txt
package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
)

// engineVsSerial is rule 4's bound: the territory engine against the
// serial engine at the same budget.
const engineVsSerial = 1.10

// table is a golden file: key -> the rest of the row, and the keys in
// file order.
type table struct {
	keys []string
	row  map[string]string
}

func readTable(path string) (table, error) {
	f, err := os.Open(path)
	if err != nil {
		return table{}, err
	}
	defer f.Close()
	t := table{row: map[string]string{}}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		key, v, _ := strings.Cut(sc.Text(), " ")
		t.keys, t.row[key] = append(t.keys, key), v
	}
	return t, sc.Err()
}

// field returns the value of name= in a row.
func field(row, name string) string {
	for _, f := range strings.Fields(row) {
		if v, ok := strings.CutPrefix(f, name+"="); ok {
			return v
		}
	}
	return ""
}

// names lists a row's field names in order.
func names(row string) []string {
	var out []string
	for _, f := range strings.Fields(row) {
		name, _, _ := strings.Cut(f, "=")
		out = append(out, name)
	}
	return out
}

func float(hex string) float64 {
	bits, err := strconv.ParseUint(hex, 16, 64)
	if err != nil {
		return math.NaN()
	}
	return math.Float64frombits(bits)
}

// hpwl is a row's placed wirelength: hpwl= on a place row, the first
// component of place= on a flow row.
func hpwl(row string) float64 {
	if v := field(row, "hpwl"); v != "" {
		return float(v)
	}
	v, _, _ := strings.Cut(field(row, "place"), "/")
	return float(v)
}

// fence checks one comparison and collects what failed.
type fence struct {
	out    io.Writer
	failed []string
}

func (f *fence) fail(format string, a ...any) {
	msg := fmt.Sprintf(format, a...)
	f.failed = append(f.failed, msg)
	fmt.Fprintln(f.out, "FAIL "+msg)
}

// columns is the -columns mode.
func (f *fence) columns(before, after table) {
	if !slices.Equal(before.keys, after.keys) {
		f.fail("the rows differ: %d before, %d after", len(before.keys), len(after.keys))
	}
	added, order := map[string]int{}, []string(nil)
	for _, key := range before.keys {
		was, now := before.row[key], after.row[key]
		for _, name := range names(was) {
			if field(now, name) != field(was, name) {
				f.fail("%s: %s=%s became %q", key, name, field(was, name), field(now, name))
			}
		}
		for _, name := range names(now) {
			if field(was, name) == "" {
				if added[name]++; added[name] == 1 {
					order = append(order, name)
				}
			}
		}
	}
	for _, name := range order {
		fmt.Fprintf(f.out, "column %s= added to %d rows\n", name, added[name])
	}
	fmt.Fprintf(f.out, "%d rows, every pre-existing field unchanged: %v\n", len(before.keys), len(f.failed) == 0)
}

// rerecord is the default mode's fence.
func (f *fence) rerecord(before, after table) {
	if !slices.Equal(before.keys, after.keys) {
		f.fail("rule 1: %d rows before, %d after, or in another order", len(before.keys), len(after.keys))
		return
	}
	for _, key := range before.keys {
		if was, now := names(before.row[key]), names(after.row[key]); !slices.Equal(was, now) {
			f.fail("rule 1: %s has columns %v, had %v", key, now, was)
		}
	}
	fmt.Fprintf(f.out, "%d rows, the same before and after\n\n", len(before.keys))

	// Rule 2: synthesis and the scatter did not move.
	for _, key := range before.keys {
		was, now := before.row[key], after.row[key]
		if strings.HasPrefix(key, "synth/") && was != now {
			f.fail("rule 2: %s moved", key)
		}
		if field(was, "init") != field(now, "init") {
			f.fail("rule 2: %s: init=%s became %s", key, field(was, "init"), field(now, "init"))
		}
	}

	// Rules 3 and 4 on the place rows.
	fmt.Fprintln(f.out, "| place row | HPWL before | HPWL after | ratio | vs new w0 |")
	fmt.Fprintln(f.out, "|---|---|---|---|---|")
	for _, key := range before.keys {
		if !strings.HasPrefix(key, "place/") || strings.Contains(key, "/w2/") {
			continue // a w2 row is printed with its w1 twin
		}
		was, now := hpwl(before.row[key]), hpwl(after.row[key])
		vsSerial := ""
		if strings.Contains(key, "/w0/") {
			if !(now <= was) {
				f.fail("rule 3: %s: HPWL %.0f is %.4fx the row it replaces (%.0f)", key, now, now/was, was)
			}
		} else {
			twin := strings.Replace(key, "/w1/", "/w2/", 1)
			if after.row[twin] != after.row[key] {
				f.fail("rule 4: %s differs from %s", key, twin)
			}
			serial := hpwl(after.row[strings.Replace(key, "/w1/", "/w0/", 1)])
			if !(now <= engineVsSerial*serial) {
				f.fail("rule 4: %s: HPWL %.0f is %.4fx the new w0 row (%.0f), bound %.2fx", key, now, now/serial, serial, engineVsSerial)
			}
			vsSerial = fmt.Sprintf("%.3f", now/serial)
		}
		fmt.Fprintf(f.out, "| %s | %.0f | %.0f | %.3f | %s |\n", strings.Replace(key, "/w1/", "/w1,w2/", 1), was, now, now/was, vsSerial)
	}

	// Rules 3, 4 and 5 on the flow rows.
	fmt.Fprintln(f.out, "\n| flow row | HPWL before | HPWL after | ratio | vs new serial | WNS ps before | after | met before | after |")
	fmt.Fprintln(f.out, "|---|---|---|---|---|---|---|---|---|")
	type wnsSum struct{ before, after, rows float64 }
	wns := map[string]*wnsSum{"serial": {}, "pw2rt4": {}} // engine -> sums over its rows
	for _, key := range before.keys {
		if !strings.HasPrefix(key, "flow/") {
			continue
		}
		rowWas, rowNow := before.row[key], after.row[key]
		if field(rowWas, "area") != field(rowNow, "area") {
			f.fail("rule 5: %s: area=%s became %s", key, field(rowWas, "area"), field(rowNow, "area"))
		}
		engine := key[strings.LastIndex(key, "/")+1:]
		if sum := wns[engine]; sum != nil {
			sum.before += float(field(rowWas, "wns"))
			sum.after += float(field(rowNow, "wns"))
			sum.rows++
		}
		was, now := hpwl(rowWas), hpwl(rowNow)
		vsSerial := ""
		if engine == "serial" {
			if !(now <= was) {
				f.fail("rule 3: %s: HPWL %.0f is %.4fx the row it replaces (%.0f)", key, now, now/was, was)
			}
		} else {
			serial := hpwl(after.row[strings.TrimSuffix(key, engine)+"serial"])
			if !(now <= engineVsSerial*serial) {
				f.fail("rule 4: %s: HPWL %.0f is %.4fx the new serial row (%.0f), bound %.2fx", key, now, now/serial, serial, engineVsSerial)
			}
			vsSerial = fmt.Sprintf("%.3f", now/serial)
		}
		fmt.Fprintf(f.out, "| %s | %.0f | %.0f | %.3f | %s | %.0f | %.0f | %s | %s |\n", key, was, now, now/was, vsSerial,
			float(field(rowWas, "wns")), float(field(rowNow, "wns")), field(rowWas, "met"), field(rowNow, "met"))
	}
	serial, engine := wns["serial"], wns["pw2rt4"]
	serialWas, serialNow := serial.before/serial.rows, serial.after/serial.rows
	fmt.Fprintf(f.out, "\nmean WNS ps: serial %.0f -> %.0f, pw2rt4 %.0f -> %.0f\n", serialWas, serialNow, engine.before/engine.rows, engine.after/engine.rows)
	if !(serialNow >= serialWas) {
		f.fail("rule 5: mean WNS of the serial rows fell from %.0f to %.0f ps", serialWas, serialNow)
	}
}

// run is main without the exit: the lines it prints go to out and the
// failures come back.
func run(args []string, out io.Writer) ([]string, error) {
	columns := len(args) > 0 && args[0] == "-columns"
	if columns {
		args = args[1:]
	}
	if len(args) != 2 {
		return nil, fmt.Errorf("usage: goldenfence [-columns] before.txt after.txt")
	}
	before, err := readTable(args[0])
	if err != nil {
		return nil, err
	}
	after, err := readTable(args[1])
	if err != nil {
		return nil, err
	}
	f := &fence{out: out}
	if columns {
		f.columns(before, after)
	} else {
		f.rerecord(before, after)
	}
	return f.failed, nil
}

func main() {
	failed, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if len(failed) > 0 {
		fmt.Printf("%d checks failed\n", len(failed))
		os.Exit(1)
	}
}
