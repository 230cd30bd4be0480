// Command goldenfence is the fence around a deliberate re-recording of
// testdata/golden_qor.txt for a change to the Workers > 0 placement
// engine (ISSUE 18). Given the golden file before and after, it fails
// unless
//
//   - only rows whose key contains /w1/, /w2/ or /pw2rt4 differ;
//   - every place/*/w1/* row equals its /w2/ twin in every field;
//   - every re-recorded place row has HPWL <= 1.01 x the row it replaces
//     and conf=0 batch=0;
//
// and prints the before/after HPWL table of the distinct place rows.
//
//	git show HEAD:testdata/golden_qor.txt > /tmp/before.txt
//	go test -run TestGoldenQoR -update . && go run ./scripts/goldenfence /tmp/before.txt testdata/golden_qor.txt
package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
)

// rows reads a golden file into key -> fields, keeping file order.
func rows(path string) (keys []string, val map[string]string) {
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	defer f.Close()
	val = map[string]string{}
	for sc := bufio.NewScanner(f); sc.Scan(); {
		key, v, _ := strings.Cut(sc.Text(), " ")
		keys, val[key] = append(keys, key), v
	}
	return keys, val
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

func hpwl(row string) float64 {
	bits, err := strconv.ParseUint(field(row, "hpwl"), 16, 64)
	if err != nil {
		return math.NaN()
	}
	return math.Float64frombits(bits)
}

func main() {
	if len(os.Args) != 3 {
		fmt.Fprintln(os.Stderr, "usage: goldenfence before.txt after.txt")
		os.Exit(2)
	}
	keys, before := rows(os.Args[1])
	_, after := rows(os.Args[2])
	bad := 0
	fail := func(format string, a ...any) {
		bad++
		fmt.Printf("FAIL "+format+"\n", a...)
	}
	if len(before) != len(after) {
		fail("%d rows before, %d after", len(before), len(after))
	}
	changed := 0
	fmt.Println("| row | HPWL before | HPWL after | ratio |")
	fmt.Println("|---|---|---|---|")
	for _, key := range keys {
		was, now := before[key], after[key]
		engine := strings.Contains(key, "/w1/") || strings.Contains(key, "/w2/") || strings.Contains(key, "/pw2rt4")
		if was != now {
			changed++
			if !engine {
				fail("%s moved and does not run Workers > 0", key)
			}
		}
		if !engine || !strings.HasPrefix(key, "place/") {
			continue
		}
		if field(now, "conf") != "0" || field(now, "batch") != "0" {
			fail("%s: conf=%s batch=%s, want 0 0", key, field(now, "conf"), field(now, "batch"))
		}
		ratio := hpwl(now) / hpwl(was)
		if !(ratio <= 1.01) {
			fail("%s: HPWL %.0f is %.4fx the row it replaces (%.0f)", key, hpwl(now), ratio, hpwl(was))
		}
		if twin := strings.Replace(key, "/w1/", "/w2/", 1); twin != key {
			if after[twin] != now {
				fail("%s differs from %s", key, twin)
			}
			fmt.Printf("| %s | %.0f | %.0f | %.3f |\n", strings.Replace(key, "/w1/", "/w1,w2/", 1), hpwl(was), hpwl(now), ratio)
		}
	}
	fmt.Printf("%d rows changed\n", changed)
	if bad > 0 {
		os.Exit(1)
	}
}
