package repro

import (
	"bufio"
	"bytes"
	"os"
	"strings"
	"testing"

	"repro/internal/metrics"
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

// TestCorpusJournalReplaysArtifact runs Table 1 through a corpus journal
// twice: the rerun must print the same bytes and replay every logfile
// run without routing any again.
func TestCorpusJournalReplaysArtifact(t *testing.T) {
	SetCorpusJournal(t.TempDir())
	t.Cleanup(func() { SetCorpusJournal("") })
	var table1 Artifact
	for _, a := range Artifacts() {
		if a.Name == "table1" {
			table1 = a
		}
	}
	nTrain, nTest, _ := corpusSizes(Small)
	runs := int64(nTrain + nTest)
	var out [2]bytes.Buffer
	for i := range out {
		appended, replayed := metrics.Get("logfile.journal.appended"), metrics.Get("logfile.journal.replayed")
		if err := table1.Run(&out[i], Small, 1); err != nil {
			t.Fatal(err)
		}
		appended = metrics.Get("logfile.journal.appended") - appended
		replayed = metrics.Get("logfile.journal.replayed") - replayed
		want := [2][2]int64{{runs, 0}, {0, runs}}[i]
		if appended != want[0] || replayed != want[1] {
			t.Errorf("run %d: appended %d, replayed %d; want %d, %d", i+1, appended, replayed, want[0], want[1])
		}
	}
	if err := CorpusJournalErr(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out[0].Bytes(), out[1].Bytes()) {
		t.Errorf("replayed Table 1 differs\n first:\n%s\n second:\n%s", out[0].String(), out[1].String())
	}
}
