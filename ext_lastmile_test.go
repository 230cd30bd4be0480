package repro

import "testing"

func TestLastMileShape(t *testing.T) {
	r := LastMile(Small, 1)
	if r.DRCRobotAttempts >= r.DRCNaiveAttempts {
		t.Errorf("DRC robot %v attempts not below naive %v", r.DRCRobotAttempts, r.DRCNaiveAttempts)
	}
	if r.TimingRobotWNSGain <= r.TimingNaiveWNSGain {
		t.Errorf("timing robot gain %v not above naive %v", r.TimingRobotWNSGain, r.TimingNaiveWNSGain)
	}
	if r.MemRobotWL >= r.MemRandomWL {
		t.Errorf("memory robot WL %v not below random %v", r.MemRobotWL, r.MemRandomWL)
	}
	if r.PkgRobotCrossings != 0 {
		t.Errorf("package robot crossings %d", r.PkgRobotCrossings)
	}
	if r.PkgGreedyCrossings == 0 {
		t.Error("greedy package layout should tangle")
	}
}

func TestNaturalStructureShape(t *testing.T) {
	r := NaturalStructure(Small, 1)
	if len(r.Exponents) != 3 {
		t.Fatalf("%d families", len(r.Exponents))
	}
	for name, p := range r.Exponents {
		if p <= 0 || p >= 1.2 {
			t.Errorf("%s Rent exponent %v implausible", name, p)
		}
	}
	// The artificial (low-locality) family should be less partitionable
	// (higher Rent exponent) than the pulpino proxy.
	if r.Exponents["artificial"] <= r.Exponents["pulpino-proxy"]-0.15 {
		t.Errorf("artificial p=%v unexpectedly far below pulpino %v",
			r.Exponents["artificial"], r.Exponents["pulpino-proxy"])
	}
}

func TestChickenEggShape(t *testing.T) {
	r := ChickenEgg(Small, 1)
	if !r.Converged {
		t.Error("fixed point did not converge")
	}
	if r.Iterations < 2 {
		t.Error("loop trivially converged")
	}
	if r.PredictionR2 < 0.7 {
		t.Errorf("fixed-point prediction R2 %v too low", r.PredictionR2)
	}
}

func TestMissingCornerShape(t *testing.T) {
	r, err := MissingCorner(Small, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.ModelMAEPs >= r.BaselineMAEPs {
		t.Errorf("model MAE %v not below baseline %v", r.ModelMAEPs, r.BaselineMAEPs)
	}
}

func TestProjectScheduleShape(t *testing.T) {
	r, err := ProjectSchedule()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Outcomes) != 3 {
		t.Fatalf("%d outcomes", len(r.Outcomes))
	}
	if r.SavingsPct < 0 {
		t.Errorf("savings %v%% negative", r.SavingsPct)
	}
	if r.Outcomes[0].Policy == "fifo" && r.SavingsPct > 0 {
		t.Error("fifo cannot be best with positive savings")
	}
}
