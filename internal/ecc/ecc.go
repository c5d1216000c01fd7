// Package ecc describes the end-to-end error protection the paper leans
// on for transmission-line noise (Section 4): "Remaining faults on the
// transmission lines could be repaired using end-to-end ECC checks",
// generated and checked in the central controller, as the IBM POWER4
// already did for its on-chip L2 [37].
//
// The code is a (72,64) single-error-correct / double-error-detect
// Hamming code with overall parity — the standard SEC-DED arrangement for
// 64-bit datapaths. A 64-byte cache block is protected as eight
// independently coded 64-bit words, so any single bit flip per word is
// corrected in place and any double flip per word is detected and forces
// a retransmission. The package holds the code's geometry and its outcome
// classes; the TLC noise model (internal/tlcache) draws each word's
// outcome from the binomial flip probabilities over the 72 coded bits
// rather than coding data.
package ecc

// CheckBits is the number of check bits per 64-bit data word: 7 Hamming
// syndrome bits plus overall parity.
const CheckBits = 8

// WordsPerBlock is the number of coded words in a 64-byte cache block.
const WordsPerBlock = 8

// BlockOverheadBits reports the total check bits a protected block carries
// on the wire: 64 bits, an eighth of the payload.
const BlockOverheadBits = CheckBits * WordsPerBlock

// Result classifies one coded word's (or block's) arrival.
type Result int

const (
	// OK: no error detected.
	OK Result = iota
	// Corrected: a single-bit error was corrected.
	Corrected
	// Uncorrectable: a double-bit (or worse, detected) error.
	Uncorrectable
)
