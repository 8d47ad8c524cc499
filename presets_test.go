package outliner

import (
	"testing"

	"outliner/internal/pipeline"
)

// TestPresetsMatchPipelines pins the public presets to the pipelines the
// tools and experiments build with, plus the verifier Build always runs.
func TestPresetsMatchPipelines(t *testing.T) {
	production := pipeline.OSize
	production.Verify = true
	if got := Production().toConfig(); got != production {
		t.Errorf("Production() = %+v, want pipeline.OSize with Verify: %+v", got, production)
	}
	def := pipeline.Default
	def.SpecializeClosures, def.Verify = true, true
	if got := DefaultPipeline().toConfig(); got != def {
		t.Errorf("DefaultPipeline() = %+v, want pipeline.Default with SpecializeClosures and Verify: %+v", got, def)
	}
}
