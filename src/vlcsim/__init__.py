"""Link-level simulator for MIMO visible-light communication.

Lambertian LOS optics drive an 802.11n-style OFDM PHY; receiver-side spatial
techniques (MRC for one stream, zero-forcing multiplexing for two) are
evaluated through scripted, seed-reproducible scenarios.

The package exports only `__version__`. Import each name from its module:
`channel`, `phy`, `mimo`, `oracle`, `scenarios`, `presets`, `sceneconfig` or
`cli`.
"""

__version__ = "0.1.0"
