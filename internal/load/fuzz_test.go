package load

import (
	"testing"
)

// FuzzScenarioConfig feeds arbitrary bytes to the strict scenario
// decoder. Two properties must hold:
//
//  1. ParseScenario never panics, whatever the input.
//  2. Any input it accepts is already normalized: encoding the result
//     and parsing it again yields the identical Scenario value (the
//     struct, including the embedded core.Knobs spec in its topology,
//     is all scalars precisely so == is exact here). This is
//     what makes a scenario file a stable run identity — if
//     parse(encode(parse(x))) could drift from parse(x), two "replays"
//     of the same document could drive different runs.
func FuzzScenarioConfig(f *testing.F) {
	for _, sc := range Presets() {
		enc, err := sc.Encode()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
	}
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"name": "x", "requests": 1, "arrival": {"process": "poisson", "rate_per_sec": 0.5}, "tenants": {"count": 1}}`))
	f.Add([]byte(`{"name": "x", "requests": 1e9}`))
	f.Add([]byte(`not json`))
	f.Add([]byte(`[1, 2, 3]`))
	f.Add([]byte(`{"name": "x"} {"name": "y"}`))
	f.Add([]byte("{\"name\": \"\x00\"}"))

	f.Fuzz(func(t *testing.T, data []byte) {
		sc, err := ParseScenario(data)
		if err != nil {
			return // rejection is fine; panics are not
		}
		enc, err := sc.Encode()
		if err != nil {
			t.Fatalf("accepted scenario failed to encode: %v\n%+v", err, sc)
		}
		back, err := ParseScenario(enc)
		if err != nil {
			t.Fatalf("accepted scenario failed to re-parse: %v\nencoded: %s", err, enc)
		}
		if back != sc {
			t.Fatalf("round-trip drifted:\n  was %+v\n  got %+v\n  encoded: %s", sc, back, enc)
		}
	})
}
