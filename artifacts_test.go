package repro

import (
	"bufio"
	"bytes"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/logfile"
)

const figsSmallPath = "testdata/figs_small.txt"

// printAll writes every artefact followed by one blank line — the bytes
// of `sprflow -fig all` at scale and seed — and names the artefact that
// printed each line.
func printAll(t *testing.T, scale Scale, seed int64) ([]byte, []string) {
	t.Helper()
	var buf bytes.Buffer
	var rows []string
	for _, a := range Artifacts() {
		if err := a.Run(&buf, scale, seed); err != nil {
			t.Fatalf("%s: %v", a.Name, err)
		}
		buf.WriteByte('\n')
		for n := bytes.Count(buf.Bytes(), []byte("\n")); len(rows) < n; {
			rows = append(rows, a.Name)
		}
	}
	return buf.Bytes(), rows
}

// TestArtifactsGolden pins every artefact's Small-scale, seed-1 report
// byte for byte. Regenerate with `go test -run TestArtifactsGolden
// -update` only for a change meant to move a report, and say which.
func TestArtifactsGolden(t *testing.T) {
	got, rows := printAll(t, Small, 1)
	if *updateGolden {
		if err := os.WriteFile(figsSmallPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d bytes to %s", len(got), figsSmallPath)
		return
	}
	want, err := os.ReadFile(figsSmallPath)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			row := "after the last artefact"
			if i < len(rows) {
				row = "in " + rows[i]
			}
			t.Fatalf("%s line %d (%s) drifted\n got  %q\n want %q", figsSmallPath, i+1, row, g, w)
		}
	}
}

// experimentsBlocks returns, per artefact name, the fenced block that
// follows its `go run ./cmd/sprflow -fig NAME -scale paper` line in
// EXPERIMENTS.md.
func experimentsBlocks(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	blocks := map[string]string{}
	var name string
	var block *strings.Builder
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case block != nil && line == "```":
			if _, dup := blocks[name]; dup {
				t.Errorf("EXPERIMENTS.md quotes %s twice", name)
			}
			blocks[name], name, block = block.String(), "", nil
		case block != nil:
			block.WriteString(line + "\n")
		case name != "" && line == "```":
			block = &strings.Builder{}
		default:
			if _, rest, ok := strings.Cut(line, "go run ./cmd/sprflow -fig "); ok {
				if n, _, ok := strings.Cut(rest, " -scale paper`"); ok {
					name = n
				}
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return blocks
}

// TestExperimentsQuotesPaperScale checks that every artefact's section in
// EXPERIMENTS.md quotes its paper-scale, seed-1 report verbatim. It runs
// only with -scale=paper (scripts/check.sh paper).
func TestExperimentsQuotesPaperScale(t *testing.T) {
	if benchScale() != Paper {
		t.Skip("run with -scale=paper")
	}
	blocks := experimentsBlocks(t)
	if len(blocks) != len(Artifacts()) {
		t.Errorf("EXPERIMENTS.md quotes %d artefacts, the table has %d", len(blocks), len(Artifacts()))
	}
	for _, a := range Artifacts() {
		var buf bytes.Buffer
		if err := a.Run(&buf, Paper, 1); err != nil {
			t.Fatalf("%s: %v", a.Name, err)
		}
		if got, ok := blocks[a.Name]; !ok {
			t.Errorf("EXPERIMENTS.md has no paper-scale block for %s", a.Name)
		} else if got != buf.String() {
			t.Errorf("EXPERIMENTS.md's %s block drifted\n got:\n%s\n quoted:\n%s", a.Name, buf.String(), got)
		}
	}
}

// TestCorporaComputedOnce: two racing Corpora calls at the same scale
// and seed return the same runs, computed once, not two copies, and
// another seed gets its own corpora.
func TestCorporaComputedOnce(t *testing.T) {
	var train, test [2][]logfile.Run
	var wg sync.WaitGroup
	for i := range train {
		wg.Add(1)
		go func() {
			defer wg.Done()
			train[i], test[i] = Corpora(Small, 1)
		}()
	}
	wg.Wait()
	if &train[0][0] != &train[1][0] || &test[0][0] != &test[1][0] {
		t.Error("Corpora(Small, 1) computed its corpora twice")
	}
	other, _ := Corpora(Small, 2)
	if &other[0] == &train[0][0] || reflect.DeepEqual(other, train[0]) {
		t.Error("Corpora(Small, 2) returned seed 1's training runs")
	}
}
