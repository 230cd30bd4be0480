package flow

import "strconv"

// Key returns the canonical cache key of an option point: two Options
// that drive identical flow runs — including ones that only differ in
// unset fields versus their defaults — map to the same string. It is
// the Options half of the campaign memo-cache key
// hash(design, Options) -> *Result.
//
// The grammar is frozen: keys address every journal, store WAL and
// warehouse ever written, so the string stays byte for byte what
// fmt.Sprintf with %g / %d / %t made of these fields (the oracle in
// key_golden_test.go).
func (o Options) Key() string {
	o = o.withDefaults()
	b := make([]byte, 0, 192)
	b = keyFloat(b, "f=", o.TargetFreqGHz)
	b = keyInt(b, " seed=", o.Seed)
	b = keyInt(b, " se=", int64(o.SynthEffort))
	b = keyInt(b, " mf=", int64(o.MaxFanout))
	b = keyFloat(b, " u=", o.Utilization)
	b = keyInt(b, " pm=", int64(o.PlaceMoves))
	b = keyInt(b, " part=", int64(o.Partitions))
	b = keyFloat(b, " tpe=", o.TracksPerEdge)
	b = keyInt(b, " re=", int64(o.RouteEffort))
	b = keyInt(b, " ri=", int64(o.RouteIters))
	b = keyFloat(b, " dr=", o.DeratePct)
	// stop, rec and rm spelled the route-truncation and area-recovery
	// options, which were zero in every key ever written; pw and rt the
	// parallel place and route kernels, which are gone: a point that sets
	// them computes what the serial point computes, so it shares its key,
	// and a journal entry written with them set holds a result this tree
	// no longer computes, so it misses. spec and stol spelled speculative
	// stage overlap, which is gone too; every key a non-speculative run
	// wrote ends this way.
	return string(append(b, " stop=0 rec=false rm=0 pw=0 rt=0 spec=false stol=0"...))
}

func keyInt(b []byte, name string, v int64) []byte {
	return strconv.AppendInt(append(b, name...), v, 10)
}

// keyFloat spells v as %g does (fmt formats through this same call).
func keyFloat(b []byte, name string, v float64) []byte {
	return strconv.AppendFloat(append(b, name...), v, 'g', -1, 64)
}
