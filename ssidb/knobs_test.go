package ssidb_test

import (
	"reflect"
	"slices"
	"testing"

	"ssi/ssidb"
)

// TestPublicKnobs pins the configuration surface: the exact fields of
// Options and TxnOptions (the program layer's ProgramOptions are pinned in
// package programs). A change that adds a knob edits this list and names, in
// the same change, the knob it retires.
func TestPublicKnobs(t *testing.T) {
	for _, c := range []struct {
		typ  reflect.Type
		want []string
	}{
		// Retired: the switch that turned off the §3.7.3 SIREAD upgrade,
		// which now always applies.
		{reflect.TypeFor[ssidb.Options](), []string{
			"Detector", "Granularity", "PageMaxKeys", "FlushLatency",
			"GroupCommitMaxDelay", "SegmentBytes", "CheckpointBytes",
			"LockShards", "LockWaitTimeout", "TableShards", "Recorder",
		}},
		{reflect.TypeFor[ssidb.TxnOptions](), []string{"ReadOnly"}},
	} {
		var got []string
		for i := range c.typ.NumField() {
			got = append(got, c.typ.Field(i).Name)
		}
		if !slices.Equal(got, c.want) {
			t.Errorf("%s has fields %v, want %v", c.typ.Name(), got, c.want)
		}
	}
}
