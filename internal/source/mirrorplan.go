package source

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/merkle"
)

// Mirror behaviors. A Byzantine mirror's behavior is a static property
// of the mirror (not of the query), so the same fleet misbehaves the
// same way toward every peer — scheduling cannot change which mirrors
// are bad, only which queries land on them.
const (
	// BehaviorWrong serves flipped bits under the honest proof.
	BehaviorWrong = "wrong"
	// BehaviorForge serves flipped bits under a fabricated proof.
	BehaviorForge = "forge"
	// BehaviorTruncate drops the tail of the honest proof.
	BehaviorTruncate = "truncate"
	// BehaviorReorder swaps hashes inside the honest proof.
	BehaviorReorder = "reorder"
	// BehaviorStale serves a consistent snapshot of an outdated array —
	// bits, proof, and root all agree with each other but not with the
	// authoritative commitment.
	BehaviorStale = "stale"
	// BehaviorSelective refuses about half of all requests (seeded per
	// peer × ordinal) and serves the rest honestly.
	BehaviorSelective = "selective"
	// BehaviorMixed cycles the concrete behaviors across the Byzantine
	// mirrors by mirror index.
	BehaviorMixed = "mixed"
)

// DefaultLeafBits is the leaf granularity when a plan leaves it unset.
const DefaultLeafBits = 64

// MirrorPlan configures the untrusted mirror tier: a fleet of Mirrors
// caches of X, the first Byz of which misbehave per Behavior. Peers
// route queries to a seeded mirror choice, verify the proof-carrying
// reply against the authoritative Merkle root, and fall back to the
// source itself on any verification failure — so a Byzantine mirror
// costs latency, never correctness, and only verified bits are ever
// charged into Q.
type MirrorPlan struct {
	// Mirrors is the fleet size (≥ 1 enables the tier).
	Mirrors int
	// Byz is the number of Byzantine mirrors (ids 0..Byz-1).
	Byz int
	// Behavior selects the Byzantine behavior (Behavior* constants);
	// empty means BehaviorMixed.
	Behavior string
	// LeafBits is the commitment leaf granularity; 0 means
	// DefaultLeafBits.
	LeafBits int
	// Seed drives mirror selection, selective-serving decisions, and
	// forged-hash fabrication.
	Seed int64
}

// Enabled reports whether the plan routes queries through mirrors.
func (p *MirrorPlan) Enabled() bool { return p != nil && p.Mirrors > 0 }

// EffectiveBehavior resolves the empty-string default.
func (p *MirrorPlan) EffectiveBehavior() string {
	if p.Behavior == "" {
		return BehaviorMixed
	}
	return p.Behavior
}

// EffectiveLeafBits resolves the zero default (nil-safe, like Enabled).
func (p *MirrorPlan) EffectiveLeafBits() int {
	if p == nil || p.LeafBits == 0 {
		return DefaultLeafBits
	}
	return p.LeafBits
}

// Validate reports plan errors.
func (p *MirrorPlan) Validate() error {
	if p == nil || p.Mirrors == 0 {
		if p != nil && (p.Byz != 0 || p.Behavior != "" || p.LeafBits != 0 || p.Seed != 0) {
			return fmt.Errorf("source: mirror plan fields set without mirrors=N")
		}
		return nil
	}
	if p.Mirrors < 1 {
		return fmt.Errorf("source: mirror plan mirrors=%d < 1", p.Mirrors)
	}
	if p.Byz < 0 || p.Byz > p.Mirrors {
		return fmt.Errorf("source: mirror plan byz=%d outside [0, %d]", p.Byz, p.Mirrors)
	}
	switch p.EffectiveBehavior() {
	case BehaviorWrong, BehaviorForge, BehaviorTruncate, BehaviorReorder,
		BehaviorStale, BehaviorSelective, BehaviorMixed:
	default:
		return fmt.Errorf("source: unknown mirror behavior %q", p.Behavior)
	}
	if lb := p.EffectiveLeafBits(); lb < 1 || lb > merkle.MaxLeafBits {
		return fmt.Errorf("source: mirror plan leaf=%d outside [1, %d]", lb, merkle.MaxLeafBits)
	}
	return nil
}

// String renders the plan in ParseMirrorPlan's grammar (canonical
// form; the empty plan renders "").
func (p *MirrorPlan) String() string {
	if !p.Enabled() {
		return ""
	}
	parts := []string{fmt.Sprintf("mirrors=%d", p.Mirrors)}
	if p.Byz > 0 {
		parts = append(parts, fmt.Sprintf("byz=%d", p.Byz))
	}
	if p.Behavior != "" {
		parts = append(parts, "behavior="+p.Behavior)
	}
	if p.LeafBits != 0 {
		parts = append(parts, fmt.Sprintf("leaf=%d", p.LeafBits))
	}
	if p.Seed != 0 {
		parts = append(parts, "seed="+strconv.FormatInt(p.Seed, 10))
	}
	return strings.Join(parts, ",")
}

// ParseMirrorPlan parses the -mirrors grammar of drsim and drconform:
// comma-separated key=value fields.
//
//	mirrors=5        fleet size (required for a non-empty plan)
//	byz=3            Byzantine mirrors (ids 0..2)
//	behavior=forge   wrong|forge|truncate|reorder|stale|selective|mixed
//	leaf=64          commitment leaf granularity in bits
//	seed=7           selection / misbehavior landscape selector
//
// Duplicated keys are rejected (the second value would silently win).
// The empty string parses to nil (no mirror tier).
func ParseMirrorPlan(s string) (*MirrorPlan, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	p := &MirrorPlan{}
	seen := make(map[string]bool)
	for _, field := range strings.Split(s, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		key, val, ok := strings.Cut(field, "=")
		if !ok {
			return nil, fmt.Errorf("source: mirror plan field %q is not key=value", field)
		}
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		if seen[key] {
			return nil, fmt.Errorf("source: mirror plan field %q duplicated", key)
		}
		seen[key] = true
		switch key {
		case "mirrors", "byz", "leaf":
			v, err := strconv.Atoi(val)
			if err != nil {
				return nil, fmt.Errorf("source: mirror plan %s=%q: %v", key, val, err)
			}
			switch key {
			case "mirrors":
				p.Mirrors = v
			case "byz":
				p.Byz = v
			case "leaf":
				p.LeafBits = v
			}
		case "behavior":
			p.Behavior = val
		case "seed":
			sd, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("source: mirror plan seed=%q: %v", val, err)
			}
			p.Seed = sd
		default:
			return nil, fmt.Errorf("source: unknown mirror plan field %q", key)
		}
	}
	if p.Mirrors == 0 {
		return nil, fmt.Errorf("source: mirror plan %q missing mirrors=N", s)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}
