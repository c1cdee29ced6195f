// Package cost implements the analytical area, power, and bandwidth
// models of §3.4, calibrated against the published 130 nm silicon the
// paper itself uses: Noda et al.'s 16T/8T/6T TCAM cells, Morishita et
// al.'s embedded DRAM macro, and Yamagata et al.'s stacked-capacitor
// binary CAM (optimistically scaled). The Figure 6 and Figure 8
// comparisons are computed from these models.
//
// Units: areas are µm² per cell; "cells" means ternary symbols for
// TCAM-style devices and bits for RAM/binary-CAM-style devices. Power
// is reported in arbitrary consistent units (1 unit = the per-search
// energy of one 16T TCAM cell, times searches/second); every experiment
// reports ratios, which are unit-free.
package cost

import "fmt"

// CellKind identifies a storage cell implementation.
type CellKind int

// Cell kinds with published implementations.
const (
	TCAM16T    CellKind = iota // 16T SRAM-based TCAM cell [Noda'03]
	TCAM8T                     // 8T dynamic TCAM cell [Noda'03]
	TCAM6T                     // 6T dynamic TCAM cell [Noda'05]
	CAMStacked                 // stacked-capacitor binary CAM [Yamagata'92], scaled
	EDRAM                      // embedded DRAM cell [Morishita'05]
	SRAM6T                     // conventional 6T SRAM cell, 130 nm
)

// String names the cell kind.
func (k CellKind) String() string {
	switch k {
	case TCAM16T:
		return "16T SRAM TCAM"
	case TCAM8T:
		return "8T dynamic TCAM"
	case TCAM6T:
		return "6T dynamic TCAM"
	case CAMStacked:
		return "stacked-capacitor CAM"
	case EDRAM:
		return "embedded DRAM"
	case SRAM6T:
		return "6T SRAM"
	default:
		return fmt.Sprintf("CellKind(%d)", int(k))
	}
}

// CellAreaUm2 returns the cell area in µm² at 130 nm. TCAM areas are
// per ternary symbol; EDRAM/SRAM areas are per bit; CAMStacked is per
// bit after the optimistic scaling DESIGN.md documents.
func CellAreaUm2(k CellKind) float64 {
	switch k {
	case TCAM16T:
		return 9.00
	case TCAM8T:
		return 4.79
	case TCAM6T:
		return 3.59
	case CAMStacked:
		return 6.23
	case EDRAM:
		return 0.35
	case SRAM6T:
		return 2.43
	default:
		return 0
	}
}

// Structural overhead factors (see DESIGN.md, "Calibration constants").
const (
	// MatchOverhead is the CA-RAM area overhead for its match
	// processors, derived from the prototype scaled to 130 nm (§3.4).
	MatchOverhead = 1.07
	// MacroCAM is the array-efficiency (periphery) factor for CAM and
	// TCAM macros.
	MacroCAM = 1.25
	// MacroDRAM is the corresponding factor for embedded-DRAM CA-RAM
	// (sense amps, decoders, index generator, match processors beyond
	// MatchOverhead's logic share).
	MacroDRAM = 3.5
	// MacroSRAM is the factor for SRAM-based CA-RAM.
	MacroSRAM = 2.0
)

// CARAMCellUm2 returns the effective CA-RAM storage cell area per
// symbol: binary symbols cost one RAM bit, ternary symbols two (the
// value/mask encoding), both carrying the match-processor overhead.
func CARAMCellUm2(base CellKind, ternary bool) float64 {
	bits := 1.0
	if ternary {
		bits = 2.0
	}
	return bits * CellAreaUm2(base) * MatchOverhead
}

// EnergyModel carries the per-search energy coefficients. The zero
// value is unusable; use Default.
type EnergyModel struct {
	// TCAMCell maps cell kinds to per-cell per-search energy,
	// normalized so TCAM16T = 1.
	TCAMCell map[CellKind]float64
	// Hash is the index-generation energy per search (P_hash).
	Hash float64
	// MemBit is the row-access energy per accessed bit (P_mem share).
	MemBit float64
	// MatchBit is the comparator energy per accessed bit (P_match).
	MatchBit float64
	// EncoderSlot is the priority-encoder energy per slot (P_encoder).
	EncoderSlot float64
	// BackgroundBit is DRAM standby/refresh power per stored bit
	// (units per second, independent of search rate).
	BackgroundBit float64
}

// Default is the calibrated model. With these coefficients the Figure 6
// configuration (1 Mi cells in 16 slices, 1600-bit rows, both devices
// at 143 MHz) yields CA-RAM power advantages of ~26x over 16T TCAM and
// ~7x over 6T TCAM, and the Figure 8 IP configuration yields ~70%
// power saving — the paper's reported values.
var Default = EnergyModel{
	TCAMCell: map[CellKind]float64{
		TCAM16T:    1.0,
		TCAM8T:     0.45,
		TCAM6T:     0.28,
		CAMStacked: 1.2, // no power-reduction techniques [Yamagata'92]
	},
	Hash:          500,
	MemBit:        4.0,
	MatchBit:      1.79,
	EncoderSlot:   10,
	BackgroundBit: 2.07e6,
}

// CAMSearchPower returns the power of a CAM/TCAM device searching at
// rate searches/second: every cell is activated on every search
// (O(w·n) match transistors), the defining cost of the approach.
func (m EnergyModel) CAMSearchPower(kind CellKind, cells float64, rate float64) float64 {
	return cells * m.TCAMCell[kind] * rate
}

// CARAMSearchPower returns the power of a CA-RAM searching at rate
// searches/second, per the §3.4 decomposition
// P = P_hash + P_mem(w,n) + P_match(n) + P_encoder(w), plus DRAM
// background power over the stored capacity. rowBits is the number of
// bits fetched and matched per search (the full bucket, across all
// horizontally-arranged slices); slots is S, the keys compared.
func (m EnergyModel) CARAMSearchPower(rowBits, slots float64, capacityBits float64, rate float64) float64 {
	perSearch := m.Hash + rowBits*(m.MemBit+m.MatchBit) + slots*m.EncoderSlot
	return perSearch*rate + capacityBits*m.BackgroundBit
}

// Bandwidth helpers (§3.4).

// CARAMBandwidth returns B = Nslice/nmem * fclk, the sustained search
// rate of nslice independently accessible slices with nmem cycles
// between back-to-back accesses.
func CARAMBandwidth(nslice, nmem int, fclkHz float64) float64 {
	if nmem <= 0 {
		return 0
	}
	return float64(nslice) / float64(nmem) * fclkHz
}
