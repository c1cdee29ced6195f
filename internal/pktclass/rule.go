// Package pktclass implements multi-field packet classification — the
// "network packet filtering" workload the paper's introduction names
// alongside routing as the canonical high-bandwidth search problem.
// An ACL rule matches a 104-bit 5-tuple (source/destination prefixes,
// port ranges, protocol) and carries a priority; classification
// returns the highest-priority matching rule.
//
// Port ranges do not map to single ternary keys, so rules undergo the
// classic range-to-prefix expansion before entering a TCAM or CA-RAM —
// an expansion this package implements minimally (a 16-bit range needs
// at most 30 prefixes). Rules whose don't-care bits cover the hash
// positions fall back to the engine's parallel overflow TCAM (§4.3),
// keeping one-access classification for the common case.
package pktclass

import (
	"fmt"

	"caram/internal/bitutil"
	"caram/internal/iproute"
)

// Key layout, MSB to LSB: [dstIP 32][srcIP 32][dstPort 16][srcPort 16][proto 8].
const (
	KeyBits    = 104
	protoOff   = 0
	srcPortOff = 8
	dstPortOff = 24
	srcIPOff   = 40
	dstIPOff   = 72
)

// FiveTuple is one packet header.
type FiveTuple struct {
	SrcIP, DstIP     uint32
	SrcPort, DstPort uint16
	Proto            uint8
}

// Key packs a packet into its 104-bit search key.
func (p FiveTuple) Key() bitutil.Vec128 {
	var v bitutil.Vec128
	v = v.Or(bitutil.FromUint64(uint64(p.DstIP)).Shl(dstIPOff))
	v = v.Or(bitutil.FromUint64(uint64(p.SrcIP)).Shl(srcIPOff))
	v = v.Or(bitutil.FromUint64(uint64(p.DstPort)).Shl(dstPortOff))
	v = v.Or(bitutil.FromUint64(uint64(p.SrcPort)).Shl(srcPortOff))
	v = v.Or(bitutil.FromUint64(uint64(p.Proto)).Shl(protoOff))
	return v
}

// PortRange is an inclusive port interval. The zero value is invalid;
// Any() covers all ports.
type PortRange struct {
	Lo, Hi uint16
}

// AnyPort covers the whole port space.
func AnyPort() PortRange { return PortRange{0, 0xffff} }

// ExactPort covers one port.
func ExactPort(p uint16) PortRange { return PortRange{p, p} }

// Contains reports membership.
func (r PortRange) Contains(p uint16) bool { return p >= r.Lo && p <= r.Hi }

// Valid reports Lo <= Hi.
func (r PortRange) Valid() bool { return r.Lo <= r.Hi }

// Rule is one classifier entry.
type Rule struct {
	ID        int
	SrcPrefix iproute.Prefix // source IP prefix (Len 0 = any)
	DstPrefix iproute.Prefix
	SrcPorts  PortRange
	DstPorts  PortRange
	Proto     uint8
	ProtoAny  bool
	Priority  int // higher wins
	Action    uint8
}

// Matches evaluates the rule against a packet directly (the linear
// oracle the hardware engines are verified against).
func (r Rule) Matches(p FiveTuple) bool {
	return r.SrcPrefix.Matches(p.SrcIP) &&
		r.DstPrefix.Matches(p.DstIP) &&
		r.SrcPorts.Contains(p.SrcPort) &&
		r.DstPorts.Contains(p.DstPort) &&
		(r.ProtoAny || r.Proto == p.Proto)
}

// Validate checks the rule's fields.
func (r Rule) Validate() error {
	if !r.SrcPorts.Valid() || !r.DstPorts.Valid() {
		return fmt.Errorf("pktclass: rule %d has an inverted port range", r.ID)
	}
	if r.SrcPrefix.Len < 0 || r.SrcPrefix.Len > 32 || r.DstPrefix.Len < 0 || r.DstPrefix.Len > 32 {
		return fmt.Errorf("pktclass: rule %d has a bad prefix length", r.ID)
	}
	return nil
}

// PortPrefix is one element of a range's minimal prefix cover: the top
// Len bits of Value are fixed, the rest don't care.
type PortPrefix struct {
	Value uint16
	Len   int // 0..16
}

// Contains reports membership in the prefix.
func (pp PortPrefix) Contains(p uint16) bool {
	if pp.Len == 0 {
		return true
	}
	shift := uint(16 - pp.Len)
	return p>>shift == pp.Value>>shift
}

// RangeToPrefixes returns the minimal prefix cover of [lo, hi] over the
// 16-bit port space — the classic greedy expansion: repeatedly take the
// largest aligned block starting at lo that fits. A worst-case range
// needs 2*16-2 = 30 prefixes.
func RangeToPrefixes(r PortRange) []PortPrefix {
	if !r.Valid() {
		return nil
	}
	var out []PortPrefix
	lo, hi := uint32(r.Lo), uint32(r.Hi)
	for lo <= hi {
		// Largest power-of-two block aligned at lo.
		size := lo & -lo
		if size == 0 {
			size = 1 << 16
		}
		for lo+size-1 > hi {
			size >>= 1
		}
		lenBits := 16
		for s := size; s > 1; s >>= 1 {
			lenBits--
		}
		out = append(out, PortPrefix{Value: uint16(lo), Len: lenBits})
		lo += size // lo and size are uint32, so 0xffff+1 cannot wrap
	}
	return out
}

// TernaryKeys expands the rule into its ternary CA-RAM/TCAM keys: the
// cross product of the two port-range prefix covers over the fixed
// IP/proto fields, each normalized.
func (r Rule) TernaryKeys() []bitutil.Ternary {
	srcCover := RangeToPrefixes(r.SrcPorts)
	dstCover := RangeToPrefixes(r.DstPorts)
	base := bitutil.Ternary{}
	// IPs.
	base.Value = base.Value.Or(bitutil.FromUint64(uint64(r.DstPrefix.Canonical().Addr)).Shl(dstIPOff))
	base.Mask = base.Mask.Or(ipMask(r.DstPrefix.Len).Shl(dstIPOff))
	base.Value = base.Value.Or(bitutil.FromUint64(uint64(r.SrcPrefix.Canonical().Addr)).Shl(srcIPOff))
	base.Mask = base.Mask.Or(ipMask(r.SrcPrefix.Len).Shl(srcIPOff))
	// Proto.
	if r.ProtoAny {
		base.Mask = base.Mask.Or(bitutil.FromUint64(0xff).Shl(protoOff))
	} else {
		base.Value = base.Value.Or(bitutil.FromUint64(uint64(r.Proto)).Shl(protoOff))
	}
	out := make([]bitutil.Ternary, 0, len(srcCover)*len(dstCover))
	for _, sp := range srcCover {
		for _, dp := range dstCover {
			k := base
			k.Value = k.Value.Or(bitutil.FromUint64(uint64(sp.Value)).Shl(srcPortOff))
			k.Mask = k.Mask.Or(portMask(sp.Len).Shl(srcPortOff))
			k.Value = k.Value.Or(bitutil.FromUint64(uint64(dp.Value)).Shl(dstPortOff))
			k.Mask = k.Mask.Or(portMask(dp.Len).Shl(dstPortOff))
			out = append(out, k.Normalize())
		}
	}
	return out
}

// ipMask returns the 32-bit don't-care mask for a prefix of length l.
func ipMask(l int) bitutil.Vec128 {
	if l >= 32 {
		return bitutil.Vec128{}
	}
	return bitutil.Mask(32 - l)
}

// portMask returns the 16-bit don't-care mask for a port prefix.
func portMask(l int) bitutil.Vec128 {
	if l >= 16 {
		return bitutil.Vec128{}
	}
	return bitutil.Mask(16 - l)
}

// ExpansionFactor returns how many ternary entries the rule needs.
func (r Rule) ExpansionFactor() int {
	return len(RangeToPrefixes(r.SrcPorts)) * len(RangeToPrefixes(r.DstPorts))
}
