package repro

import "io"

// Artifact is one paper artefact — a figure, table or study — and the
// run that regenerates it and prints its report.
type Artifact struct {
	Name string
	Run  func(w io.Writer, scale Scale, seed int64) error
}

// Artifacts returns the paper's scoreboard in paper order: every figure
// and table, then the studies of the systems the paper describes beyond
// its figures. `sprflow -fig NAME|all` prints them;
// testdata/figs_small.txt pins their Small-scale bytes and
// EXPERIMENTS.md quotes their paper-scale output. It is a function, not
// a variable, so a program that never asks for the table does not link
// every experiment.
func Artifacts() []Artifact {
	return []Artifact{
		{"fig1", func(w io.Writer, _ Scale, _ int64) error { Fig1().Print(w); return nil }},
		{"fig2", func(w io.Writer, _ Scale, _ int64) error { Fig2().Print(w); return nil }},
		{"fig3", show(Fig3)},
		{"fig4", func(w io.Writer, _ Scale, _ int64) error { PrintFig4(w, Fig4(1.1)); return nil }},
		{"fig5", func(w io.Writer, _ Scale, _ int64) error { Fig5().Print(w); return nil }},
		{"fig6a", show(Fig6a)},
		{"fig6b", show(Fig6b)},
		{"fig7", showErr(Fig7)},
		{"fig8", showErr(Fig8)},
		{"fig9", show(Fig9)},
		{"fig10", show(Fig10)},
		{"table1", show(Table1)},
		{"doomed-live", show(DoomedLive)},
		{"fig11", showErr(Fig11)},
		{"bandits", func(w io.Writer, _ Scale, seed int64) error { Fig7Robustness(seed).Print(w); return nil }},
		{"ropes", showErr(Ropes)},
		{"multiphysics", showErr(Multiphysics)},
		{"sharing", show(Sharing)},
		{"rl", show(StageFourRL)},
		{"lastmile", show(LastMile)},
		{"structure", show(NaturalStructure)},
		{"chickenegg", show(ChickenEgg)},
		{"corners", showErr(MissingCorner)},
		{"schedule", func(w io.Writer, _ Scale, _ int64) error {
			r, err := ProjectSchedule()
			if err == nil {
				r.Print(w)
			}
			return err
		}},
	}
}

type printer interface{ Print(w io.Writer) }

// show adapts an experiment that cannot fail to Artifact.Run.
func show[R printer](run func(Scale, int64) R) func(io.Writer, Scale, int64) error {
	return func(w io.Writer, scale Scale, seed int64) error {
		run(scale, seed).Print(w)
		return nil
	}
}

// showErr adapts an experiment that can fail to Artifact.Run; a failed
// experiment prints nothing.
func showErr[R printer](run func(Scale, int64) (R, error)) func(io.Writer, Scale, int64) error {
	return func(w io.Writer, scale Scale, seed int64) error {
		r, err := run(scale, seed)
		if err == nil {
			r.Print(w)
		}
		return err
	}
}
