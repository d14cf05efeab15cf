package comm

import "fmt"

// Validate reports spec errors.
func (l LinkSpec) Validate() error {
	if l.BandwidthBytesPerSec <= 0 {
		return fmt.Errorf("comm: non-positive bandwidth %v", l.BandwidthBytesPerSec)
	}
	if l.LatencyNS < 0 {
		return fmt.Errorf("comm: negative latency %d", l.LatencyNS)
	}
	return nil
}
