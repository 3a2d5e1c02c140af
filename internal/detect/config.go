package detect

import (
	"fmt"
	"math"
	"os"
	"time"

	"quicsand/internal/strictjson"
)

// Config parameterizes the sliding-window detectors. The zero value
// is not usable; start from Default.
type Config struct {
	// Window is the sliding-window width. Default 60s — the paper's
	// per-minute intensity slot.
	Window time.Duration `json:"-"`
	// RatePPS is the per-source rate threshold in packets/second; a
	// rate alert opens when a window holds strictly more than
	// RatePPS×Window packets. Default 0.5 — Moore et al.'s intensity
	// criterion, matching the batch detector.
	RatePPS float64 `json:"rate_pps"`
	// MinCIDRatio opens a CID-ratio alert when distinct CIDs per QUIC
	// packet ≥ this with at least MinPackets QUIC packets in the
	// window. Default 0.5.
	MinCIDRatio float64 `json:"min_cid_ratio"`
	// MinPackets is the CID-ratio detector's evidence floor: the QUIC
	// packets a window must hold before the ratio is read. Default 20.
	MinPackets int `json:"min_packets"`
}

// Default returns the paper-derived detector configuration.
func Default() Config {
	return Config{
		Window:      60 * time.Second,
		RatePPS:     0.5,
		MinCIDRatio: 0.5,
		MinPackets:  20,
	}
}

// RateCount is the packet count that triggers a rate alert:
// strictly more than RatePPS over one full window, i.e.
// floor(RatePPS×Window)+1. At defaults this is 31 — the same floor
// the batch oracle derives for attack sessions.
func (c *Config) RateCount() int {
	return int(math.Floor(c.RatePPS*c.Window.Seconds())) + 1
}

// EffectiveWindow is the guaranteed lookback of the bucket ring:
// Window minus one bucket width. Any interval of this length ending
// at a packet is fully covered by that packet's window sum.
func (c *Config) EffectiveWindow() time.Duration {
	return c.Window - c.Window/Buckets
}

// Validate checks the configuration invariants the shard math relies
// on. The shard counts packets in uint32s, so both packet thresholds
// must fit one.
func (c *Config) Validate() error {
	if c.Window <= 0 {
		return fmt.Errorf("detect: window must be positive, got %v", c.Window)
	}
	if c.Window.Milliseconds()/Buckets < 1 {
		return fmt.Errorf("detect: window %v too narrow for %d buckets (bucket < 1ms)", c.Window, Buckets)
	}
	if !(c.RatePPS > 0) || math.IsInf(c.RatePPS, 0) {
		return fmt.Errorf("detect: rate_pps must be a positive finite number, got %v", c.RatePPS)
	}
	// RateCount = floor(x)+1 fits a uint32 exactly when x < 2^32−1.
	if x := c.RatePPS * c.Window.Seconds(); x >= math.MaxUint32 {
		return fmt.Errorf("detect: rate_pps %v over a %v window needs %.0f packets, above the %d a window counts",
			c.RatePPS, c.Window, math.Floor(x)+1, uint32(math.MaxUint32))
	}
	if c.MinCIDRatio < 0 || c.MinCIDRatio > 1 || math.IsNaN(c.MinCIDRatio) {
		return fmt.Errorf("detect: min_cid_ratio must be in [0, 1], got %v", c.MinCIDRatio)
	}
	if c.MinPackets < 1 || int64(c.MinPackets) > math.MaxUint32 {
		return fmt.Errorf("detect: min_packets must be in [1, %d], got %d", uint32(math.MaxUint32), c.MinPackets)
	}
	return nil
}

// LoadConfig parses a detector-config JSON document: one object, with
// the window as a duration string and every other knob under its JSON
// tag. Unknown fields and repeated keys (also case-folded ones) are
// errors — a typoed or doubled knob must fail loudly, not silently keep
// its default or its last value — and malformed input yields a clean
// error, never a panic (FuzzLoadConfig). Omitted and null fields keep
// Default's values.
func LoadConfig(data []byte) (Config, error) {
	cfg := Default()
	file := struct {
		Window string `json:"window"`
		*Config
	}{Config: &cfg}
	if err := strictjson.Decode(data, &file, "detect", "config"); err != nil {
		return Config{}, err
	}
	if file.Window != "" {
		d, err := time.ParseDuration(file.Window)
		if err != nil {
			return Config{}, fmt.Errorf("detect: window: %w", err)
		}
		cfg.Window = d
	}
	if err := cfg.Validate(); err != nil {
		return Config{}, err
	}
	return cfg, nil
}

// Resolve returns the configuration -detect-config and -window select
// (`quicsand replay -alerts`, telescoped): Default or the file at path,
// its Window overridden by a positive window, validated. Each error
// names the flag behind it.
func Resolve(path string, window time.Duration) (*Config, error) {
	cfg := Default()
	if path != "" {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("-detect-config: %w", err)
		}
		if cfg, err = LoadConfig(data); err != nil {
			return nil, fmt.Errorf("-detect-config: %s: %w", path, err)
		}
	}
	if window > 0 { // Default and LoadConfig's result are valid
		cfg.Window = window
		if err := cfg.Validate(); err != nil {
			return nil, fmt.Errorf("-window: %w", err)
		}
	}
	return &cfg, nil
}
