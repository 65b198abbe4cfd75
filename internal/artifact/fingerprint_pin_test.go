package artifact_test

import (
	"testing"

	"cosmicdance/internal/artifact"
	"cosmicdance/internal/constellation"
	"cosmicdance/internal/core"
	"cosmicdance/internal/scale"
	"cosmicdance/internal/spaceweather"
)

// TestFingerprintPresetsPinned pins the content address of every preset the
// programs cache under. A fingerprint that moves orphans every cache entry
// stored under the old one, so a change to how configs are hashed must leave
// these hex strings exactly as they are. The scale run's configs carry a
// nonzero Parallelism, which no fingerprint may see.
func TestFingerprintPresetsPinned(t *testing.T) {
	scaleSpec := scale.Spec{Sats: 100_000, Days: 7, Seed: 42, Parallelism: 3}
	scaleCore := scale.CoreConfig()
	scaleCore.Parallelism = 5
	researchStart := spaceweather.Paper2020to2024().Start

	paperWx := artifact.FingerprintWeather(spaceweather.Paper2020to2024())
	mayWx := artifact.FingerprintWeather(spaceweather.May2024())
	scaleWx := artifact.FingerprintWeather(scale.WeatherConfig(scaleSpec))
	paperFleet := artifact.FingerprintFleet(paperWx, constellation.PaperFleet(42))
	megaFleet := artifact.FingerprintFleet(scaleWx, scale.FleetConfig(scaleSpec))

	for _, c := range []struct {
		name string
		got  artifact.Fingerprint
		want string
	}{
		{"weather/paper", paperWx, "318e14815b9e35997190183b13640748f5a20f6001e58b28ef8d1ce312065d7a"},
		{"weather/may2024", mayWx, "9d71b009ac68e90a2f76664c433ba122edb2887b813ef5a10d119f1f4d40f0fb"},
		{"weather/fifty-years", artifact.FingerprintWeather(spaceweather.FiftyYears()), "5620d196d9fddbb510d69bd25073e776c538b01004787794292c9d60a31ae793"},
		{"weather/scale-100k", scaleWx, "79129d2cf6e01bc187fe5315e95472871b74c455227e06b1b40a13067683c88f"},
		{"fleet/paper", paperFleet, "16a92c887988874d7b6274fc66551f19339284fff28db63508437b90cf8212d4"},
		{"fleet/may2024", artifact.FingerprintFleet(mayWx, constellation.May2024Fleet(42)), "514a210ac5922d1bfa0426d22fe3c75c387196ae912b0dc791df6303f94ced9c"},
		{"fleet/mega-100k", megaFleet, "8d523339a55e021791fb8e2a6e5f7769e9572490b53ad83507fed37b46888353"},
		{"fleet/research", artifact.FingerprintFleet(paperWx, constellation.ResearchFleet(42, researchStart, researchStart.AddDate(1, 0, 0), 10)), "e9357d957adf0c3562aab29e4eef9731de0bc461efe24511fe7c5bd978be1094"},
		{"dataset/paper", artifact.FingerprintDataset(paperFleet, core.DefaultConfig()), "d8f2f1ae1e1d6257f4bfc531b5308028b086a653ded2c95a447d578611c6d532"},
		{"dataset/scale-1400km", artifact.FingerprintDataset(megaFleet, scaleCore), "fdff6d6411c092da08f0d4d67e7912773d9adef206707f6a20b7ada05150b03b"},
	} {
		if got := c.got.String(); got != c.want {
			t.Errorf("%s: fingerprint %s, pinned %s", c.name, got, c.want)
		}
	}
}
