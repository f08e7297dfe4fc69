package host

import (
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzDecodeJSONObject holds decodeJSONObject to json.Unmarshal into a
// map[string]any: the same inputs accepted and deeply equal values. The
// oracle allows the two documented differences: errors agree in presence,
// not in wording, and on an error decodeJSONObject returns no map where
// json.Unmarshal may have filled part of one. Seeds are in
// testdata/fuzz/FuzzDecodeJSONObject.
func FuzzDecodeJSONObject(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var want map[string]any
		wantErr := json.Unmarshal(data, &want)
		got, err := decodeJSONObject(data)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("%q: decodeJSONObject error %v, json.Unmarshal error %v", data, err, wantErr)
		}
		if err != nil {
			if got != nil {
				t.Fatalf("%q: decodeJSONObject returned %#v with error %v", data, got, err)
			}
			return
		}
		if !reflect.DeepEqual(map[string]any(got), want) {
			t.Fatalf("%q:\n got %#v\nwant %#v", data, got, want)
		}
	})
}
