package download

import (
	"fmt"
	"strconv"
	"strings"
)

// ParseChurn parses the churn schedule grammar shared by the CLI flags
// (drchaos -churn) and the conformance fixtures: comma-separated
// "peer:crashAfter:downtime" triples, e.g. "0:4:2,3:7:-1". Peer and
// crashAfter are non-negative integers; downtime is a float in runtime
// time units (virtual on des, seconds on TCP), and a negative value
// means the peer crashes for good. An empty string is an empty schedule.
func ParseChurn(s string) ([]ChurnPeer, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var churn []ChurnPeer
	for _, part := range strings.Split(s, ",") {
		fields := strings.Split(strings.TrimSpace(part), ":")
		if len(fields) != 3 {
			return nil, fmt.Errorf("download: churn entry %q: want peer:crashAfter:downtime", part)
		}
		peer, err := strconv.Atoi(fields[0])
		if err != nil {
			return nil, fmt.Errorf("download: churn entry %q: bad peer: %v", part, err)
		}
		after, err := strconv.Atoi(fields[1])
		if err != nil {
			return nil, fmt.Errorf("download: churn entry %q: bad crashAfter: %v", part, err)
		}
		down, err := strconv.ParseFloat(fields[2], 64)
		if err != nil {
			return nil, fmt.Errorf("download: churn entry %q: bad downtime: %v", part, err)
		}
		churn = append(churn, ChurnPeer{Peer: peer, CrashAfter: after, Downtime: down})
	}
	return churn, nil
}
