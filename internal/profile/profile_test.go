package profile

import (
	"bytes"
	"math"
	"reflect"
	"testing"
)

func sample() Profile {
	return Profile{
		"main": {Calls: 3, Branches: map[int]Counts{
			7:  {Taken: 10, Fall: 2},
			12: {Taken: 0, Fall: 5},
		}},
		"helper": {Calls: 40, Branches: map[int]Counts{}},
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	p := sample()
	data := p.Marshal()
	got, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p, got) {
		t.Fatalf("round trip changed the profile:\n%v\n%v", p, got)
	}
	// Deterministic bytes: marshal of the decoded copy is identical.
	if !bytes.Equal(data, got.Marshal()) {
		t.Fatalf("marshal is not byte-deterministic:\n%s\n%s", data, got.Marshal())
	}
}

func TestMarshalDeterministicOrder(t *testing.T) {
	// Two structurally equal profiles built in different insertion orders
	// must serialize to the same bytes.
	a := Profile{}
	a.Merge(sample())
	b := Profile{
		"helper": {Calls: 40, Branches: map[int]Counts{}},
		"main": {Calls: 3, Branches: map[int]Counts{
			12: {Taken: 0, Fall: 5},
			7:  {Taken: 10, Fall: 2},
		}},
	}
	if !bytes.Equal(a.Marshal(), b.Marshal()) {
		t.Fatalf("equal profiles serialized differently:\n%s\n%s", a.Marshal(), b.Marshal())
	}
}

func TestUnmarshalRejects(t *testing.T) {
	cases := map[string]string{
		"bad json":       `{`,
		"wrong version":  `{"version":2,"functions":[]}`,
		"empty name":     `{"version":1,"functions":[{"name":""}]}`,
		"dup func":       `{"version":1,"functions":[{"name":"f"},{"name":"f"}]}`,
		"negative calls": `{"version":1,"functions":[{"name":"f","calls":-1}]}`,
		"negative taken": `{"version":1,"functions":[{"name":"f","branches":[{"id":1,"taken":-2,"fall":0}]}]}`,
		"dup branch":     `{"version":1,"functions":[{"name":"f","branches":[{"id":1,"taken":1,"fall":0},{"id":1,"taken":2,"fall":0}]}]}`,
	}
	for name, data := range cases {
		if _, err := Unmarshal([]byte(data)); err == nil {
			t.Errorf("%s: Unmarshal accepted %s", name, data)
		}
	}
}

func TestMergeAndWeight(t *testing.T) {
	var p Profile // merging into nil allocates
	p = p.Merge(sample())
	p = p.Merge(sample())
	if got := p["main"].Calls; got != 6 {
		t.Fatalf("merged calls = %d, want 6", got)
	}
	if got := p["main"].Branches[7]; got != (Counts{Taken: 20, Fall: 4}) {
		t.Fatalf("merged branch = %+v", got)
	}
	// Weight = calls + branch events.
	if got, want := p.Weight("main"), int64(6+20+4+0+10); got != want {
		t.Fatalf("Weight(main) = %d, want %d", got, want)
	}
	if got := p.Weight("helper"); got != 80 {
		t.Fatalf("Weight(helper) = %d, want 80", got)
	}
	if got := p.Weight("absent"); got != 0 {
		t.Fatalf("Weight(absent) = %d, want 0", got)
	}
}

func TestMergeSaturates(t *testing.T) {
	p := Profile{"f": {Calls: math.MaxInt64 - 1, Branches: map[int]Counts{
		1: {Taken: math.MaxInt64, Fall: 0},
	}}}
	p = p.Merge(Profile{"f": {Calls: 10, Branches: map[int]Counts{1: {Taken: 10, Fall: 0}}}})
	if p["f"].Calls != math.MaxInt64 {
		t.Fatalf("calls did not saturate: %d", p["f"].Calls)
	}
	if p["f"].Branches[1].Taken != math.MaxInt64 {
		t.Fatalf("taken did not saturate: %d", p["f"].Branches[1].Taken)
	}
	if p.Weight("f") != math.MaxInt64 {
		t.Fatalf("weight did not saturate: %d", p.Weight("f"))
	}
}

func TestWeightAndCounts(t *testing.T) {
	p := Profile{
		"main": {Calls: 2, Branches: map[int]Counts{4: {Taken: 7, Fall: 3}}},
		"cold": {Calls: 1, Branches: map[int]Counts{}},
	}
	if got, want := p.Weight("main"), int64(2+7+3); got != want {
		t.Fatalf("Weight = %d, want %d", got, want)
	}
	if got := p.Weight("cold"); got != 1 {
		t.Fatalf("calls-only Weight = %d, want 1", got)
	}
	if taken, fall := p.Counts("main", 4); taken != 7 || fall != 3 {
		t.Fatalf("Counts = %d/%d", taken, fall)
	}
	if taken, fall := p.Counts("main", 99); taken != 0 || fall != 0 {
		t.Fatalf("missing branch Counts = %d/%d, want 0/0", taken, fall)
	}
	if taken, fall := Profile(nil).Counts("main", 4); taken != 0 || fall != 0 {
		t.Fatalf("nil profile Counts = %d/%d, want 0/0", taken, fall)
	}
}
