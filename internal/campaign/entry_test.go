package campaign

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/cellib"
	"repro/internal/flow"
	"repro/internal/netlist"
)

// fill sets every exported field reachable from v to a distinct non-zero
// value: counters for numbers, two elements per slice and map, a fresh
// target per pointer. Filling two values with equal counters yields two
// deeply equal, unshared copies.
func fill(t testing.TB, v reflect.Value, next *int) {
	t.Helper()
	*next++
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(int64(*next%100 + 1))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(uint64(*next%100 + 1))
	case reflect.Float32, reflect.Float64:
		v.SetFloat(float64(*next) + 0.25)
	case reflect.String:
		v.SetString(fmt.Sprintf("s%d", *next))
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fill(t, v.Elem(), next)
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		fill(t, v.Index(0), next)
		fill(t, v.Index(1), next)
	case reflect.Map:
		v.Set(reflect.MakeMap(v.Type()))
		for i := 0; i < 2; i++ {
			k, e := reflect.New(v.Type().Key()).Elem(), reflect.New(v.Type().Elem()).Elem()
			fill(t, k, next)
			fill(t, e, next)
			v.SetMapIndex(k, e)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				fill(t, v.Field(i), next)
			}
		}
	default:
		t.Fatalf("fill: %s field of kind %s: teach the record's round-trip test about it", v.Type(), v.Kind())
	}
}

func filledEntry(t testing.TB) Entry {
	e := Entry{Key: "design#0\x00opts"}
	next := 0
	fill(t, reflect.ValueOf(&e.Res).Elem(), &next)
	fill(t, reflect.ValueOf(&e.Steps).Elem(), &next)
	return e
}

// TestEntryRoundTripKeepsEveryScalar fills every exported field of
// flow.Result, flow.Options and flow.StepRecord (and of
// whatever they reach) and sends the entry through its codec: the six
// artifact fields come back nil, every other field comes back equal. A
// field added later is filled too, so it cannot fall out of the record —
// or bloat it as an artifact nobody named — without failing here.
func TestEntryRoundTripKeepsEveryScalar(t *testing.T) {
	e, want := filledEntry(t), filledEntry(t)
	if !reflect.DeepEqual(e, want) {
		t.Fatal("fill is not deterministic")
	}
	artifacts := func(r *flow.Result) []reflect.Value {
		return []reflect.Value{
			reflect.ValueOf(&r.Netlist).Elem(), reflect.ValueOf(&r.Synth.Netlist).Elem(),
			reflect.ValueOf(&r.Global.Demand).Elem(), reflect.ValueOf(&r.CTS.SkewPs).Elem(),
			reflect.ValueOf(&r.Sign.Endpoints).Elem(), reflect.ValueOf(&r.Sign.CriticalPath).Elem(),
		}
	}
	for i, a := range artifacts(want.Res) {
		if a.IsNil() {
			t.Fatalf("artifact %d was not filled", i)
		}
		a.SetZero()
	}
	if !reflect.DeepEqual(e.Res.Summary(), want.Res) {
		t.Fatal("Summary() drops something other than the six artifact fields")
	}
	data, err := EncodeEntry(e)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeEntry(data)
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range artifacts(got.Res) {
		if !a.IsNil() {
			t.Errorf("artifact %d survived the codec", i)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("entry changed across its codec:\n got %+v\nwant %+v", got.Res, want.Res)
	}
	if e.Res.Netlist == nil {
		t.Fatal("EncodeEntry stripped the caller's result")
	}
}

// pulpinoEntry is one real pulpino-proxy point — the benchmark's durable
// unit of work — as the journal would record it. Computed once.
var pulpinoEntry = sync.OnceValue(func() Entry {
	d := netlist.Generate(cellib.Default14nm(), netlist.PulpinoProxy(1))
	opts := flow.Options{SynthEffort: 2, Seed: 3}
	var steps []flow.StepRecord
	res := flow.RunObserved(d, opts, flow.ObserverFunc(func(s flow.StepRecord) { steps = append(steps, s) }))
	return Entry{Key: Points(d, KeyFor(d), opts, []int64{opts.Seed})[0].CacheKey(), Res: res, Steps: steps}
})

// TestEntryBudget: a point's record is its summary, a few KB whatever
// the design's size (it was 330 KB — the whole netlist, twice — per
// 1.2 k-cell point). Tier-1, so the size cannot creep back.
func TestEntryBudget(t *testing.T) {
	data, err := EncodeEntry(pulpinoEntry())
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > 8192 {
		t.Fatalf("encoded pulpino-proxy entry is %d bytes, budget 8192", len(data))
	}
}

// TestCongestionMarginSurvivesSummary: the one derived number readers
// take from a global-route result divides by the edge count, which a
// summary must carry without the demand map — bit for bit, live, as a
// summary, and decoded.
func TestCongestionMarginSurvivesSummary(t *testing.T) {
	e := pulpinoEntry()
	live := math.Float64bits(e.Res.Global.CongestionMargin())
	if e.Res.Global.Edges == 0 || e.Res.Global.Edges != len(e.Res.Global.Demand) {
		t.Fatalf("Edges = %d for %d demand entries", e.Res.Global.Edges, len(e.Res.Global.Demand))
	}
	if got := math.Float64bits(e.Res.Summary().Global.CongestionMargin()); got != live {
		t.Fatalf("summary margin %x, live %x", got, live)
	}
	data, err := EncodeEntry(e)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeEntry(data)
	if err != nil {
		t.Fatal(err)
	}
	if got := math.Float64bits(dec.Res.Global.CongestionMargin()); got != live {
		t.Fatalf("decoded margin %x, live %x", got, live)
	}
	if !reflect.DeepEqual(dec.Res, e.Res.Summary()) || !reflect.DeepEqual(dec.Steps, e.Steps) {
		t.Fatal("decoded entry is not the live point's summary and steps")
	}
}

// FuzzDecodeEntry drives the entry decoder — which reads bytes off disks
// and sockets — with arbitrary input: it agrees with a fresh gob decoder
// (both fail, or both return the same entry) although every iteration
// shares one pool primed with the seed record's section, never panics,
// and never allocates beyond a fixed multiple of its input
// plus gob's fixed slack (gob sizes a decoded slice from its length
// prefix but in chunks of at most 10 MB, one per nesting level). Known
// hole, gob's and as old as the record: a map — StepRecord.Metrics — is
// sized from its count prefix alone, so a corrupted count byte is not
// covered by this bound; the journal's CRC and the store's 1 MiB wire cap
// stand in front of the decoder. An input tripping the assertion through
// a map count is that hole, not a regression.
func FuzzDecodeEntry(f *testing.F) {
	data, err := EncodeEntry(pulpinoEntry())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	f.Add([]byte{})
	for _, cut := range []int{1, len(data) / 3, len(data) / 2, len(data) - 1} {
		f.Add(data[:cut])
	}
	for _, at := range []int{0, 7, len(data) / 4, len(data) / 2, len(data) - 9} {
		flipped := bytes.Clone(data)
		flipped[at] ^= 0x40
		f.Add(flipped)
	}
	// Every field set, artifacts included: the struct still has them, so
	// a record that carries a netlist is input the decoder must survive.
	var full bytes.Buffer
	if err := gob.NewEncoder(&full).Encode(filledEntry(f)); err != nil {
		f.Fatal(err)
	}
	f.Add(full.Bytes())

	if _, err := DecodeEntry(data); err != nil {
		f.Fatal(err)
	}

	const slack, multiple = 64 << 20, 512
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		e, err := DecodeEntry(data)
		runtime.ReadMemStats(&after)
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > slack+multiple*uint64(len(data)) {
			t.Fatalf("decoding %d bytes allocated %d", len(data), alloc)
		}
		want, werr := freshDecode(data)
		if (err == nil) != (werr == nil) {
			t.Fatalf("DecodeEntry error %v, fresh decode error %v", err, werr)
		}
		if err != nil {
			return
		}
		if !sameBits(reflect.ValueOf(e), reflect.ValueOf(want)) {
			t.Fatal("DecodeEntry and a fresh decode returned different entries")
		}
		// What decodes must encode again: a store re-serves it.
		if _, err := EncodeEntry(e); err != nil {
			t.Fatalf("decoded entry does not re-encode: %v", err)
		}
	})
}
