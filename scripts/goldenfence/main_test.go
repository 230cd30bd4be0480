package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

func hex(v float64) string { return fmt.Sprintf("%016x", math.Float64bits(v)) }

// golden builds a file shaped like testdata/golden_qor.txt: 2 designs x 3
// seeds x (2 place + 3 synth + 1 flow rows). scale multiplies the HPWL of
// the row named by its key.
func golden(scale func(key string) float64) []string {
	var rows []string
	for _, design := range []string{"pulpino-proxy", "mid3k"} {
		for seed := 1; seed <= 3; seed++ {
			for _, part := range []string{"p1", "p2"} {
				key := fmt.Sprintf("place/%s/s%d/w0/%s", design, seed, part)
				rows = append(rows, fmt.Sprintf("%s hpwl=%s init=%s tried=100 acc=10 conf=0 batch=0 proxy=7 pproxy=7 placed=00ff",
					key, hex(1000*scale(key)), hex(5000)))
			}
			for e := 1; e <= 3; e++ {
				rows = append(rows, fmt.Sprintf("synth/%s/s%d/e%d area=%s wns=%s tns=%s upsized=3 buffers=1 passes=2 netlist=0abc", design, seed, e, hex(40), hex(-5), hex(-9)))
			}
			key := fmt.Sprintf("flow/%s/s%d/serial", design, seed)
			rows = append(rows, fmt.Sprintf("%s point=01 place=%s/10/0/7 netlist=02 met=false wns=%s area=%s", key, hex(1000*scale(key)), hex(-400), hex(77)))
		}
	}
	return rows
}

// fenceOf runs the fence over two files holding the given rows.
func fenceOf(t *testing.T, mode []string, before, after []string, reasons ...string) (failed []string, out string) {
	t.Helper()
	dir := t.TempDir()
	paths := []string{filepath.Join(dir, "before.txt"), filepath.Join(dir, "after.txt")}
	for i, rows := range [][]string{before, after} {
		if err := os.WriteFile(paths[i], []byte(strings.Join(rows, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var sb strings.Builder
	failed, err := run(append(append(mode, paths...), reasons...), &sb)
	if err != nil {
		t.Fatal(err)
	}
	return failed, sb.String()
}

// edit returns rows with the one starting with key passed through f (dropped
// when f returns "").
func edit(t *testing.T, rows []string, key string, f func(row string) string) []string {
	t.Helper()
	var out []string
	hit := false
	for _, row := range rows {
		if strings.HasPrefix(row, key+" ") {
			hit = true
			if row = f(row); row == "" {
				continue
			}
		}
		out = append(out, row)
	}
	if !hit {
		t.Fatalf("no row %s", key)
	}
	return out
}

func replace(old, new string) func(string) string {
	return func(row string) string { return strings.Replace(row, old, new, 1) }
}

// TestRerecordRules: a re-record inside every bound passes, and for each
// rule one pair of files that breaks it — and nothing else — fails naming it.
func TestRerecordRules(t *testing.T) {
	one := func(string) float64 { return 1 }
	// Every placed row shorter but one, which is inside rule 3's bound.
	improved := func(key string) float64 {
		if key == "place/mid3k/s1/w0/p1" {
			return 1.029
		}
		return 0.80
	}
	before, after := golden(one), golden(improved)
	if failed, out := fenceOf(t, nil, before, after); len(failed) != 0 {
		t.Fatalf("a re-record inside every bound failed:\n%s", out)
	} else if !strings.Contains(out, "36 rows, the same before and after") ||
		!strings.Contains(out, "| place/mid3k/s3/w0/p2 | 1000 | 800 | 0.800 |") ||
		!strings.Contains(out, "| flow/mid3k/s3/serial | 1000 | 800 | 0.800 | -400 | -400 | false | false |") ||
		!strings.Contains(out, "mean WNS ps of the serial rows: -400 -> -400") {
		t.Fatalf("the table lacks the row count, a printed ratio or the WNS means:\n%s", out)
	}

	scaled := func(key string, by float64) []string {
		return golden(func(k string) float64 {
			if k == key {
				return by
			}
			return improved(k)
		})
	}
	for _, tc := range []struct {
		name          string
		before, after []string
		want          string
	}{
		{"rule1/another row removed", before, edit(t, after, "synth/mid3k/s2/e1", func(string) string { return "" }), "rule 1: 36 rows before, 35 after"},
		{"rule1/row added", before, append([]string{"place/new/s1/w0/p1 hpwl=00"}, after...), "rule 1: 36 rows before, 37 after"},
		{"rule1/another column removed", before, edit(t, after, "place/mid3k/s1/w0/p1", replace(" batch=0", "")), "rule 1: place/mid3k/s1/w0/p1 has columns"},
		{"rule2/synth moved", before, edit(t, after, "synth/mid3k/s2/e1", replace("upsized=3", "upsized=4")), "rule 2: synth/mid3k/s2/e1 moved"},
		{"rule2/scatter moved", before, edit(t, after, "place/mid3k/s2/w0/p2", replace("init="+hex(5000), "init="+hex(5001))), "rule 2: place/mid3k/s2/w0/p2: init="},
		{"rule3/w0 row worse", before, scaled("place/pulpino-proxy/s2/w0/p2", 1.031), "rule 3: place/pulpino-proxy/s2/w0/p2"},
		{"rule3/serial flow worse", before, scaled("flow/pulpino-proxy/s2/serial", 1.031), "rule 3: flow/pulpino-proxy/s2/serial"},
		{"rule4/area moved", before, edit(t, after, "flow/mid3k/s3/serial", replace("area="+hex(77), "area="+hex(78))), "rule 4: flow/mid3k/s3/serial: area="},
		{"rule4/serial WNS worse", before, edit(t, after, "flow/mid3k/s3/serial", replace("wns="+hex(-400), "wns="+hex(-401))), "rule 4: mean WNS of the serial rows fell"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			failed, out := fenceOf(t, nil, tc.before, tc.after)
			if len(failed) == 0 {
				t.Fatalf("passed:\n%s", out)
			}
			for _, msg := range failed {
				if !strings.HasPrefix(msg, tc.want[:6]) {
					t.Errorf("also failed %q", msg)
				}
			}
			if !strings.Contains(strings.Join(failed, "\n"), tc.want) {
				t.Fatalf("failed with %q, want %q", failed, tc.want)
			}
		})
	}
}

// TestColumnsMode: added columns pass and are counted; a changed field, a
// removed field and a different row set fail.
func TestColumnsMode(t *testing.T) {
	before := golden(func(string) float64 { return 1 })
	var after []string
	for _, row := range before {
		if strings.HasPrefix(row, "flow/") {
			row += " extra=1"
		}
		after = append(after, row)
	}
	failed, out := fenceOf(t, []string{"-columns"}, before, after)
	if len(failed) != 0 || !strings.Contains(out, "column extra= added to 6 rows") || !strings.Contains(out, "36 rows, every pre-existing field unchanged: true") {
		t.Fatalf("added column: failed %q\n%s", failed, out)
	}
	for name, bad := range map[string][]string{
		"changed field": edit(t, after, "flow/mid3k/s1/serial", replace("point=01", "point=03")),
		"removed field": edit(t, after, "place/mid3k/s1/w0/p1", replace(" batch=0", "")),
		"removed row":   after[1:],
	} {
		if failed, out := fenceOf(t, []string{"-columns"}, before, bad); len(failed) == 0 {
			t.Errorf("%s passed:\n%s", name, out)
		}
	}
	if _, err := run([]string{"only-one.txt"}, io.Discard); err == nil {
		t.Error("one argument accepted")
	}
}

// figsFile builds a file shaped like testdata/figs_small.txt: one block per
// artefact, each followed by a blank line, with the blocks of moved
// replaced.
func figsFile(moved map[string][]string) []string {
	var lines []string
	for _, name := range artefactNames() {
		block, ok := moved[name]
		if !ok {
			block = []string{"Report " + name, "row 1  0.50", "row 2  0.75"}
		}
		lines = append(append(lines, block...), "")
	}
	return lines[:len(lines)-1] // fenceOf ends the file with a newline
}

// TestFigsMode: an unchanged file passes, a moved block named with a reason
// passes and prints its diff, and a moved block nobody named fails, as do
// a named block that did not move, a name without a reason or artefact,
// and a file with a block too many.
func TestFigsMode(t *testing.T) {
	before := figsFile(nil)
	moved := figsFile(map[string][]string{"fig6b": {"Report fig6b", "row 1  0.55", "row 2  0.75"}})
	figs := func(before, after []string, reasons ...string) ([]string, string) {
		return fenceOf(t, []string{"-figs"}, before, after, reasons...)
	}
	count := len(artefactNames())
	if failed, out := figs(before, before); len(failed) != 0 || !strings.Contains(out, fmt.Sprintf("0 of %d artefacts moved", count)) {
		t.Fatalf("an unchanged file: failed %q\n%s", failed, out)
	}
	failed, out := figs(before, moved, "fig6b=the anneal starts elsewhere")
	if len(failed) != 0 {
		t.Fatalf("a named moved block failed %q\n%s", failed, out)
	}
	if want := fmt.Sprintf("### fig6b: the anneal starts elsewhere\n- row 1  0.50\n+ row 1  0.55\n\n1 of %d artefacts moved\n", count); out != want {
		t.Fatalf("printed\n%s\nwant\n%s", out, want)
	}
	for _, tc := range []struct {
		name    string
		after   []string
		reasons []string
		want    string
	}{
		{"unnamed moved block", moved, nil, "fig6b moved, and the command line does not name it"},
		{"another block named", moved, []string{"fig6b=placement", "fig7=sampling"}, "fig7 is named but did not move"},
		{"no reason", moved, []string{"fig6b= "}, "fig6b is named without a reason"},
		{"no such artefact", moved, []string{"fig6b=placement", "fig12=x"}, "fig12 is named but is no artefact"},
		{"a blank line inside a report", figsFile(map[string][]string{"fig1": {"Report fig1", "", "row"}}), []string{"fig1=split"}, fmt.Sprintf("after: %d blocks for %d artefacts", count+1, count)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			failed, out := figs(before, tc.after, tc.reasons...)
			if !slices.Contains(failed, tc.want) {
				t.Fatalf("failed %q, want %q\n%s", failed, tc.want, out)
			}
		})
	}
	if _, err := run([]string{"-figs", "a.txt", "b.txt", "fig6b"}, io.Discard); err == nil {
		t.Error("a name without =reason accepted")
	}
}
