// Buffer accounting, used to reproduce the memory columns of Tables 2 and 3
// of the paper from live protocol state instead of trusting the formulas.

package core

// RxBufferedBytes reports the verifier-side buffer usage of all open
// exchanges: preSig counts buffered pre-signatures (MACs or Merkle roots,
// the Table 2 "Verifier" column) and ack counts the reliable-mode
// pre-(n)ack material (Table 3).
func (e *Endpoint) RxBufferedBytes() (preSig, ack int) {
	for rx := e.rx.First(); rx != nil; rx = e.rx.Next(rx) {
		preSig += rx.SigBytes()
		ack += rx.ackBytes()
	}
	return preSig, ack
}

// TxBufferedBytes reports the signer-side buffer usage of all in-flight
// exchanges: payload bytes awaiting acknowledgment plus retained signature
// packets (the Table 2 "Signer" column, measured on encoded state).
func (e *Endpoint) TxBufferedBytes() (payload, sig int) {
	for x := e.tx.First(); x != nil; x = e.tx.Next(x) {
		for i := range x.msgs {
			payload += len(x.msgs[i].payload)
		}
		sig += len(x.s1)
		for _, raw := range x.s2s {
			sig += len(raw)
		}
	}
	return payload, sig
}
