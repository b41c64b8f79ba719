package core

import (
	"reflect"
	"testing"
)

// TestStatsAddSubCoverEveryField fails when a Stats counter is added
// without being merged by Add or subtracted by Sub: each field in turn
// is the only non-zero one, and must come out of both with the right
// value while every other field stays zero.
func TestStatsAddSubCoverEveryField(t *testing.T) {
	typ := reflect.TypeOf(Stats{})
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		if typ.Field(i).Type.Kind() != reflect.Uint64 {
			t.Fatalf("Stats.%s is %s; Add and Sub handle uint64 counters only", name, typ.Field(i).Type)
		}
		only := func(v uint64) *Stats {
			var s Stats
			reflect.ValueOf(&s).Elem().Field(i).SetUint(v)
			return &s
		}
		var sum Stats
		sum.Add(only(5))
		sum.Add(only(2))
		if sum != *only(7) {
			t.Errorf("Add does not merge Stats.%s: got %+v", name, sum)
		}
		diff := *only(7)
		diff.Sub(only(2))
		if diff != *only(5) {
			t.Errorf("Sub does not subtract Stats.%s: got %+v", name, diff)
		}
	}
}
