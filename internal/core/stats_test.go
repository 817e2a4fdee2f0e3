package core_test

import (
	"encoding/json"
	"reflect"
	"sort"
	"testing"
	"time"

	"absolver/internal/core"
	"absolver/internal/server/api"
)

// TestStatsEveryFieldCovered sets every core.Stats field to a distinct
// nonzero value and checks that each mirror of the struct carries all of
// them: Merge, the session's per-call delta, Counters, and the
// core → api.Stats → JSON → api.Stats → core round trip (durations at
// millisecond precision).
func TestStatsEveryFieldCovered(t *testing.T) {
	var st core.Stats
	v := reflect.ValueOf(&st).Elem()
	isDur := func(i int) bool { return v.Field(i).Type() == reflect.TypeOf(time.Duration(0)) }
	var counters []int64
	for i := 0; i < v.NumField(); i++ {
		x := int64(i + 1)
		if isDur(i) {
			x = x*int64(time.Millisecond) + int64(123*time.Microsecond)
		} else {
			counters = append(counters, x)
		}
		v.Field(i).SetInt(x)
	}
	check := func(what string, got core.Stats, want func(i int) int64) {
		t.Helper()
		g := reflect.ValueOf(got)
		for i := 0; i < v.NumField(); i++ {
			a, b := g.Field(i).Int(), want(i)
			if isDur(i) {
				a, b = a/int64(time.Millisecond), b/int64(time.Millisecond)
			}
			if a != b {
				t.Errorf("%s: %s = %d, want %d", what, v.Type().Field(i).Name, a, b)
			}
		}
	}

	doubled := st
	doubled.Merge(st)
	check("Merge", doubled, func(i int) int64 { return 2 * v.Field(i).Int() })
	check("statsDelta", core.StatsDelta(doubled, st), func(i int) int64 { return v.Field(i).Int() })

	var got []int64
	for _, x := range st.Counters() {
		got = append(got, x)
	}
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	if !reflect.DeepEqual(got, counters) {
		t.Errorf("Counters values %v, want one per counter field %v", got, counters)
	}

	b, err := json.Marshal(api.StatsFrom(st))
	if err != nil {
		t.Fatal(err)
	}
	var wire api.Stats
	if err := json.Unmarshal(b, &wire); err != nil {
		t.Fatal(err)
	}
	check("wire round trip", wire.ToCore(), func(i int) int64 { return v.Field(i).Int() })
}
