package scenario

import (
	"fmt"
	"os"

	"quicsand/internal/strictjson"
)

// Load parses a JSON scenario spec and validates it. Unknown fields and
// repeated keys are errors: a typoed or doubled knob must fail loudly,
// not silently keep its default or its last value. Load never panics on
// malformed input (FuzzLoad).
func Load(data []byte) (*Scenario, error) {
	var sc Scenario
	if err := strictjson.Decode(data, &sc, "scenario", "spec"); err != nil {
		return nil, err
	}
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	return &sc, nil
}

// LoadFile reads and parses a JSON spec file.
func LoadFile(path string) (*Scenario, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	sc, err := Load(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return sc, nil
}
