// Fixture for the ctrlfifo analyzer: only allowlisted order-free control
// (opTelemetry) may leave the FIFO lanes.
package ctrlfifo

type Packet struct{ Tag int32 }

const tagControl = 0

var (
	opTelemetry  int64 = 4
	opCheckpoint int64 = 7
)

func ctrlOp(p *Packet) (int64, error) { return opTelemetry, nil }

func orderFreeControl(p *Packet) bool {
	op, err := ctrlOp(p)
	return err == nil && op == opTelemetry
}

// splitGood diverts only the allowlisted op, behind the chokepoint
// predicate.
func splitGood(ps []*Packet, ctrl chan<- *Packet) []*Packet {
	var kept []*Packet
	for _, p := range ps {
		if orderFreeControl(p) {
			select {
			case ctrl <- p:
			default:
			}
			continue
		}
		kept = append(kept, p)
	}
	return kept
}

// splitBad routes EVERY control packet order-free: a stream-close would
// overtake the data it fences.
func splitBad(ps []*Packet, ctrl chan<- *Packet) []*Packet {
	var kept []*Packet
	for _, p := range ps {
		if p.Tag == tagControl {
			ctrl <- p // want `send into the order-free control lane without an opTelemetry/orderFreeControl guard`
			continue
		}
		kept = append(kept, p)
	}
	return kept
}

type sched struct {
	ctrl []*Packet
	data int
}

// addGood gates the order-free lane on the allowlisted op.
func (s *sched) addGood(p *Packet, op int64) {
	if op == opTelemetry {
		s.ctrl = append(s.ctrl, p)
		return
	}
	s.data++
}

// addGoodSwitch shows the case-clause guard form.
func (s *sched) addGoodSwitch(p *Packet, op int64) {
	switch op {
	case opTelemetry:
		s.ctrl = append(s.ctrl, p)
	default:
		s.data++
	}
}

// addBadOtherOp gates the order-free lane on an op that is not
// allowlisted: a checkpoint must stay FIFO with the data it describes.
func (s *sched) addBadOtherOp(p *Packet, op int64) {
	if op == opCheckpoint {
		s.ctrl = append(s.ctrl, p) // want `append onto the order-free ctrl lane without an opTelemetry/orderFreeControl guard`
		return
	}
	s.data++
}

// addBad puts every control packet on the order-free lane.
func (s *sched) addBad(p *Packet) {
	if p.Tag == tagControl {
		s.ctrl = append(s.ctrl, p) // want `append onto the order-free ctrl lane without an opTelemetry/orderFreeControl guard`
		return
	}
	s.data++
}

// elseBad: the guard's ELSE arm is exactly the non-allowlisted traffic.
func elseBad(p *Packet, ctrl chan<- *Packet, data chan<- *Packet) {
	if orderFreeControl(p) {
		ctrl <- p
	} else {
		ctrl <- p // want `send into the order-free control lane without an opTelemetry/orderFreeControl guard`
	}
}

// dataLane sends on non-control channels freely.
func dataLane(p *Packet, inbox chan<- *Packet) {
	inbox <- p
}
