"""Monte Carlo simulator and analytics for photon-pair standoff detection.

A pulsed pair source sends one photon of each pair (the signal) to a
diffusely reflecting target while the other (the herald) is detected
locally. Counting receiver clicks alone is classical illumination (CI);
counting signal-herald coincidences is the pair-correlated protocol (QI).
The toolkit simulates the full chain, reduces time-tag streams, and
quantifies the SNR enhancement, which equals the source's second-order
coherence.
"""

from .analytics import (
    SweepRow,
    SweepTable,
    analytic_g2,
    click_pattern_probabilities,
    click_probabilities,
    expected_snr_classical,
    expected_snr_quantum,
    qef,
    run_sweep,
    snr_from_counts,
    sweep_to_csv,
)
from .channel import (
    Channel,
    StreamOrderError,
    TimeTagStream,
    collection_fraction_max,
    read_qitt,
    read_tags_csv,
    simulate_counts,
    simulate_tags,
    write_qitt,
    write_tags_csv,
)
from .correlator import bin_and_count, estimate_g2, windowed_coincidences
from .imaging import (
    PixelImage,
    Scene,
    contrast,
    interpolate4,
    raster_scan,
    read_pgm,
    scene_from_pgm,
    scene_to_pgm,
    two_level_scene,
    write_pgm,
)
from .model import (
    BinProbabilities,
    ChannelParams,
    ClickCounts,
    ConfigError,
    Estimate,
    ExperimentConfig,
    SourceParams,
    bare_channel,
    bare_source,
    config_digest,
    load_config,
    paper_default,
    save_config,
    validate_config,
)
from .rng import substream
from .source import idler_wavelength, poisson_pair_counts

__version__ = "0.1.0"
