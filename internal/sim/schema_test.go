package sim

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// resultSchemas pins the exported field set of Result — recursively, so a
// field added to an embedded struct (Window, chain.Reward, stats.Counter)
// trips it too — against ResultSchemaVersion. Changing Result without
// bumping the version fails TestResultSchemaPinned; bumping the version
// without recording the new shape here fails it the other way. Together
// with the version stamp in the row stores' headers, this makes "same
// schema version" mean "bit-for-bit the same row layout".
var resultSchemas = map[int]string{
	1: resultShapeV1,
	// Version 2 keeps version 1's shape: only row addresses changed, when
	// streaming settlement became the engine and the jobkey stopped
	// encoding the streaming flag.
	2: resultShapeV1,
}

const resultShapeV1 = "sim.Result{Alpha:float64;Blocks:int;ByPool:[]chain.Reward{Nephew:float64;Static:float64;Uncle:float64};" +
	"Early:sim.Window{ByPool:[]chain.Reward{Nephew:float64;Static:float64;Uncle:float64};End:float64;Regular:int;Start:float64;Uncles:int};" +
	"Elapsed:float64;EventsByPool:[]int64;FinalDifficulty:float64;" +
	"Honest:chain.Reward{Nephew:float64;Static:float64;Uncle:float64};HonestUncleDistances:stats.Counter{};InitialDifficulty:float64;" +
	"MinerRewards:[]chain.Reward{Nephew:float64;Static:float64;Uncle:float64};MinerSeen:[]bool;Occupancy:map[core.State{H:int;S:int}]int64;" +
	"OccupancyByPool:[]map[core.State{H:int;S:int}]int64;Pool:chain.Reward{Nephew:float64;Static:float64;Uncle:float64};PoolUncleDistances:stats.Counter{};" +
	"RegularCount:int;Retargets:int;SettledTime:float64;StaleCount:int;" +
	"Steady:sim.Window{ByPool:[]chain.Reward{Nephew:float64;Static:float64;Uncle:float64};End:float64;Regular:int;Start:float64;Uncles:int};UncleCount:int}"

// describeType renders a type's exported structure canonically: struct
// fields sorted by name and every struct expanded in place (a recursive
// type would collapse to {...}, though no row type is recursive), so the
// description is finite and stable.
func describeType(t reflect.Type, seen map[reflect.Type]bool) string {
	switch t.Kind() {
	case reflect.Ptr, reflect.Slice, reflect.Array:
		prefix := "[]"
		if t.Kind() == reflect.Ptr {
			prefix = "*"
		}
		return prefix + describeType(t.Elem(), seen)
	case reflect.Map:
		return fmt.Sprintf("map[%s]%s", describeType(t.Key(), seen), describeType(t.Elem(), seen))
	case reflect.Struct:
		name := t.String()
		if seen[t] {
			return name + "{...}"
		}
		seen[t] = true
		var fields []string
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if !f.IsExported() {
				continue
			}
			fields = append(fields, f.Name+":"+describeType(f.Type, seen))
		}
		delete(seen, t)
		sort.Strings(fields)
		return name + "{" + strings.Join(fields, ";") + "}"
	default:
		return t.String()
	}
}

func TestResultSchemaPinned(t *testing.T) {
	want, ok := resultSchemas[ResultSchemaVersion]
	if !ok {
		t.Fatalf("ResultSchemaVersion = %d has no recorded shape; add it to resultSchemas", ResultSchemaVersion)
	}
	got := describeType(reflect.TypeOf(Result{}), make(map[reflect.Type]bool))
	if got != want {
		t.Errorf("Result's shape changed without a schema bump.\nBump sim.ResultSchemaVersion and record the new shape in resultSchemas.\ngot:  %s\nwant: %s", got, want)
	}
}
