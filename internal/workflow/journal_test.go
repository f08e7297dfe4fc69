package workflow

import (
	"encoding/json"
	"errors"
	"testing"

	"soc/internal/wal"
)

// A failed append keeps the machine's error as its cause: errors.Is sees
// ErrJournal, and errors.As the encoder's error under it.
func TestJournalAppendKeepsItsCause(t *testing.T) {
	m, err := wal.OpenMachine(wal.NewMemFS(7), wal.Options{}, -1, wal.Handler[Record, snapshotState]{
		Apply: func(Record) error { return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	j := &journal{m: m}
	err = j.append(Record{Inst: "wf", Kind: recDone, Payload: make(chan int)})
	var unsupported *json.UnsupportedTypeError
	if !errors.Is(err, ErrJournal) || !errors.As(err, &unsupported) ||
		err.Error() != "workflow: journal append failed: wal: encoding record: json: unsupported type: chan int" {
		t.Fatalf("err = %v, want ErrJournal wrapping the encoder's error", err)
	}
}
