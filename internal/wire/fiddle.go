package wire

import (
	"fmt"
	"strings"
)

// Fiddle operation codes. Each op takes a fixed set of string and
// float arguments, validated by ValidateFiddle.
const (
	OpPinInlet        = 0x01 // strings: machine;            floats: temp
	OpUnpinInlet      = 0x02 // strings: machine
	OpSetNodeTemp     = 0x03 // strings: machine, node;      floats: temp
	OpSetSourceTemp   = 0x04 // strings: source;             floats: temp
	OpSetHeatK        = 0x05 // strings: machine, a, b;      floats: k
	OpSetAirFraction  = 0x06 // strings: machine, from, to;  floats: fraction
	OpSetFanFlow      = 0x07 // strings: machine;            floats: cfm
	OpSetPowerScale   = 0x08 // strings: machine, component; floats: scale
	OpSetMachinePower = 0x09 // strings: machine;            floats: 1=on 0=off
)

// FiddleOp is a run-time mutation request from the fiddle tool.
type FiddleOp struct {
	Op      byte
	Strings []string
	Floats  []float64
}

// opShape describes the argument counts of each operation.
var opShape = map[byte]struct{ strs, floats int }{
	OpPinInlet:        {1, 1},
	OpUnpinInlet:      {1, 0},
	OpSetNodeTemp:     {2, 1},
	OpSetSourceTemp:   {1, 1},
	OpSetHeatK:        {3, 1},
	OpSetAirFraction:  {3, 1},
	OpSetFanFlow:      {1, 1},
	OpSetPowerScale:   {2, 1},
	OpSetMachinePower: {1, 1},
}

// OpName returns a human-readable name for an operation code.
func OpName(op byte) string {
	switch op {
	case OpPinInlet:
		return "pin-inlet"
	case OpUnpinInlet:
		return "unpin-inlet"
	case OpSetNodeTemp:
		return "set-node-temperature"
	case OpSetSourceTemp:
		return "set-source-temperature"
	case OpSetHeatK:
		return "set-heat-k"
	case OpSetAirFraction:
		return "set-air-fraction"
	case OpSetFanFlow:
		return "set-fan-flow"
	case OpSetPowerScale:
		return "set-power-scale"
	case OpSetMachinePower:
		return "set-machine-power"
	default:
		return fmt.Sprintf("op-0x%02x", op)
	}
}

// FiddleEventDetail renders an op for the thermal event log, e.g.
// "pin-inlet(machine1)". solverd and mercury-replay both use it, so
// replayed fiddle events are byte-identical to the live run's.
func FiddleEventDetail(op *FiddleOp) string {
	return OpName(op.Op) + "(" + strings.Join(op.Strings, ",") + ")"
}

// OpCode is the inverse of OpName: it resolves a human-readable
// operation name (as accepted by the fiddle tool and the control
// plane's POST /fiddle) back to its code. ok is false for unknown
// names.
func OpCode(name string) (op byte, ok bool) {
	for _, c := range []byte{
		OpPinInlet, OpUnpinInlet, OpSetNodeTemp, OpSetSourceTemp,
		OpSetHeatK, OpSetAirFraction, OpSetFanFlow, OpSetPowerScale,
		OpSetMachinePower,
	} {
		if OpName(c) == name {
			return c, true
		}
	}
	return 0, false
}

// ValidateFiddle checks an operation's argument counts.
func ValidateFiddle(op *FiddleOp) error {
	shape, ok := opShape[op.Op]
	if !ok {
		return fmt.Errorf("wire: unknown fiddle op 0x%02x", op.Op)
	}
	if len(op.Strings) != shape.strs || len(op.Floats) != shape.floats {
		return fmt.Errorf("wire: %s takes %d strings and %d floats, got %d and %d",
			OpName(op.Op), shape.strs, shape.floats, len(op.Strings), len(op.Floats))
	}
	return nil
}

// MarshalFiddleOp encodes an operation after validating it.
func MarshalFiddleOp(op *FiddleOp) ([]byte, error) {
	if err := ValidateFiddle(op); err != nil {
		return nil, err
	}
	e := header(MsgFiddleOp)
	e.byte(op.Op)
	e.byte(byte(len(op.Strings)))
	for _, s := range op.Strings {
		e.str(s)
	}
	e.byte(byte(len(op.Floats)))
	for _, f := range op.Floats {
		e.f64(f)
	}
	if e.err != nil {
		return nil, e.err
	}
	return e.buf, nil
}

// UnmarshalFiddleOp decodes and validates an operation.
func UnmarshalFiddleOp(buf []byte) (*FiddleOp, error) {
	d, err := checkHeader(buf, MsgFiddleOp)
	if err != nil {
		return nil, err
	}
	op := &FiddleOp{}
	if op.Op, err = d.byte(); err != nil {
		return nil, err
	}
	ns, err := d.byte()
	if err != nil {
		return nil, err
	}
	for i := 0; i < int(ns); i++ {
		s, err := d.str()
		if err != nil {
			return nil, err
		}
		op.Strings = append(op.Strings, s)
	}
	nf, err := d.byte()
	if err != nil {
		return nil, err
	}
	for i := 0; i < int(nf); i++ {
		f, err := d.f64()
		if err != nil {
			return nil, err
		}
		op.Floats = append(op.Floats, f)
	}
	if err := ValidateFiddle(op); err != nil {
		return nil, err
	}
	return op, nil
}

// FiddleReply answers a FiddleOp.
type FiddleReply struct {
	Status  byte
	Message string
}

// AppendFiddleReply encodes a reply appended to dst; a message longer
// than a wire string is clipped, so every reply encodes.
func AppendFiddleReply(dst []byte, r *FiddleReply) ([]byte, error) {
	e := traceHeader(dst, MsgFiddleReply, TraceContext{})
	e.byte(r.Status)
	e.message(r.Message)
	return e.buf, nil
}

// UnmarshalFiddleReply decodes a reply.
func UnmarshalFiddleReply(buf []byte) (*FiddleReply, error) {
	d, err := checkHeader(buf, MsgFiddleReply)
	if err != nil {
		return nil, err
	}
	r := &FiddleReply{}
	if r.Status, err = d.byte(); err != nil {
		return nil, err
	}
	if r.Message, err = d.str(); err != nil {
		return nil, err
	}
	return r, nil
}

// Type peeks at a datagram's message type without fully decoding it.
func Type(buf []byte) (byte, error) {
	if len(buf) < 2 {
		return 0, ErrShort
	}
	if buf[0] != Version && buf[0] != VersionTrace {
		return 0, ErrBadVersion
	}
	return buf[1], nil
}
