package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func hex(v float64) string { return fmt.Sprintf("%016x", math.Float64bits(v)) }

// golden builds a file shaped like testdata/golden_qor.txt: 2 designs x 3
// seeds x (6 place + 3 synth + 2 flow rows). scale multiplies the HPWL of
// the row named by its key.
func golden(scale func(key string) float64) []string {
	var rows []string
	for _, design := range []string{"pulpino-proxy", "mid3k"} {
		for seed := 1; seed <= 3; seed++ {
			for w := 0; w <= 2; w++ {
				for _, part := range []string{"p1", "p2"} {
					key := fmt.Sprintf("place/%s/s%d/w%d/%s", design, seed, w, part)
					rows = append(rows, fmt.Sprintf("%s hpwl=%s init=%s tried=100 acc=10 conf=0 batch=0 proxy=7 pproxy=7 placed=00ff",
						key, hex(1000*scale(key)), hex(5000)))
				}
			}
			for e := 1; e <= 3; e++ {
				rows = append(rows, fmt.Sprintf("synth/%s/s%d/e%d area=%s wns=%s tns=%s upsized=3 buffers=1 passes=2 netlist=0abc", design, seed, e, hex(40), hex(-5), hex(-9)))
			}
			for _, eng := range []string{"serial", "pw2rt4"} {
				key := fmt.Sprintf("flow/%s/s%d/%s", design, seed, eng)
				rows = append(rows, fmt.Sprintf("%s point=01 place=%s/10/0/7 netlist=02 met=false wns=%s area=%s", key, hex(1000*scale(key)), hex(-400), hex(77)))
			}
		}
	}
	return rows
}

// fenceOf runs the fence over two files holding the given rows.
func fenceOf(t *testing.T, mode []string, before, after []string) (failed []string, out string) {
	t.Helper()
	dir := t.TempDir()
	paths := []string{filepath.Join(dir, "before.txt"), filepath.Join(dir, "after.txt")}
	for i, rows := range [][]string{before, after} {
		if err := os.WriteFile(paths[i], []byte(strings.Join(rows, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var sb strings.Builder
	failed, err := run(append(mode, paths...), &sb)
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
	// The change as measured: serial rows shorter, engine rows a little above
	// the new serial rows beside them.
	improved := func(key string) float64 {
		if strings.Contains(key, "/w0/") || strings.HasSuffix(key, "/serial") {
			return 0.80
		}
		return 0.81
	}
	before, after := golden(one), golden(improved)
	if failed, out := fenceOf(t, nil, before, after); len(failed) != 0 {
		t.Fatalf("a re-record inside every bound failed:\n%s", out)
	} else if !strings.Contains(out, "66 rows, the same before and after") ||
		!strings.Contains(out, "| place/mid3k/s3/w1,w2/p2 | 1000 | 810 | 0.810 | 1.012 |") ||
		!strings.Contains(out, "| flow/mid3k/s3/pw2rt4 | 1000 | 810 | 0.810 | 1.012 | -400 | -400 | false | false |") ||
		!strings.Contains(out, "mean WNS ps: serial -400 -> -400, pw2rt4 -400 -> -400") {
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
		{"rule1/another row removed", before, edit(t, after, "synth/mid3k/s2/e1", func(string) string { return "" }), "rule 1: 66 rows before, 65 after"},
		{"rule1/row added", before, append([]string{"place/new/s1/w0/p1 hpwl=00"}, after...), "rule 1: 66 rows before, 67 after"},
		{"rule1/another column removed", before, edit(t, after, "place/mid3k/s1/w0/p1", replace(" batch=0", "")), "rule 1: place/mid3k/s1/w0/p1 has columns"},
		{"rule2/synth moved", before, edit(t, after, "synth/mid3k/s2/e1", replace("upsized=3", "upsized=4")), "rule 2: synth/mid3k/s2/e1 moved"},
		{"rule2/scatter moved", before, edit(t, after, "place/mid3k/s2/w0/p2", replace("init="+hex(5000), "init="+hex(5001))), "rule 2: place/mid3k/s2/w0/p2: init="},
		{"rule3/w0 row worse", before, scaled("place/pulpino-proxy/s2/w0/p2", 1.001), "rule 3: place/pulpino-proxy/s2/w0/p2"},
		{"rule3/serial flow worse", before, scaled("flow/pulpino-proxy/s2/serial", 1.001), "rule 3: flow/pulpino-proxy/s2/serial"},
		{"rule4/w1 differs from w2", before, edit(t, after, "place/mid3k/s1/w2/p1", replace("acc=10", "acc=11")), "rule 4: place/mid3k/s1/w1/p1 differs from place/mid3k/s1/w2/p1"},
		{"rule4/pw2rt4 above the new serial row", before, scaled("flow/mid3k/s1/pw2rt4", 0.89), "rule 4: flow/mid3k/s1/pw2rt4: HPWL 890 is 1.1125x the new serial row"},
		{"rule5/area moved", before, edit(t, after, "flow/mid3k/s3/serial", replace("area="+hex(77), "area="+hex(78))), "rule 5: flow/mid3k/s3/serial: area="},
		{"rule5/area moved on pw2rt4", before, edit(t, after, "flow/mid3k/s3/pw2rt4", replace("area="+hex(77), "area="+hex(78))), "rule 5: flow/mid3k/s3/pw2rt4: area="},
		{"rule5/serial WNS worse", before, edit(t, after, "flow/mid3k/s3/serial", replace("wns="+hex(-400), "wns="+hex(-401))), "rule 5: mean WNS of the serial rows fell"},
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
	// The engine bound against the w0 row beside it, on a place row: both
	// twins break it, and nothing else does.
	worse := golden(func(k string) float64 {
		if strings.HasPrefix(k, "place/mid3k/s1/w") && strings.HasSuffix(k, "/p1") && !strings.Contains(k, "/w0/") {
			return 0.89
		}
		return improved(k)
	})
	failed, out := fenceOf(t, nil, before, worse)
	if len(failed) != 1 || !strings.Contains(failed[0], "rule 4: place/mid3k/s1/w1/p1: HPWL 890 is 1.1125x the new w0 row") {
		t.Fatalf("w1/w2 at 1.1125x the w0 row: %q\n%s", failed, out)
	}
	// Engine rows may get longer than they were, as long as they stay
	// within the bound of the new serial rows: rule 3 holds serial rows only.
	if failed, out := fenceOf(t, nil, before, scaled("flow/mid3k/s2/pw2rt4", 0.88)); len(failed) != 0 {
		t.Fatalf("pw2rt4 at 1.10x the new serial row failed:\n%s", out)
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
	if len(failed) != 0 || !strings.Contains(out, "column extra= added to 12 rows") || !strings.Contains(out, "66 rows, every pre-existing field unchanged: true") {
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
