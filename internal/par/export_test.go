package par

// SetRecordedHook installs (or, with nil, removes) the hook Run calls
// after recording a task failure.
func SetRecordedHook(f func(i int)) { recordedHook = f }
