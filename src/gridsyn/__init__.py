"""gridsyn: symmetric logic synthesis on orthogonal grid plots.

The library decomposes two-level Boolean covers into networks of totally
symmetric components coupled by inverters, choosing input polarities that
maximize local symmetries.  Supporting machinery: exact cube/minterm
semantics, order-independent rank spectra with a convolution product rule,
minimal grid-plot DAGs with node/link metrics and layout search, threshold
cell mapping with pitch-based area reports, and exhaustive planarity
surveys at small arity.
"""

from .cubes import (
    CapacityError,
    Cover,
    MintermSet,
    ParseError,
    PhaseVector,
    cover_to_minterms,
    literal_density,
    minterm_index,
    parse_pla,
    parse_pla_outputs,
    phase_minterms,
    transform_mask,
    write_pla,
)
from .spectra import (
    FullRankSet,
    RankSpectrum,
    convolve,
    format_spectrum,
    fullrank_set_if_symmetric,
    spectrum_of,
)
from .gridplot import (
    GridDag,
    PlotMetrics,
    build_grid_dag,
    bridge_points,
    is_planar_plot,
    metrics,
    minimize_layout,
    render,
)
from .cores import (
    Core,
    CoreSearch,
    best_core,
    best_pair_cores,
    dc_partition,
    expand_core,
)
from .netlist import (
    Netlist,
    NetlistBuilder,
    NetNode,
    Ref,
    netlist_from_text,
    netlist_to_expr,
    netlist_to_json_dict,
    netlist_to_text,
)
from .decompose import (
    DecompositionError,
    VerifyResult,
    decompose,
    factor_core,
    verify,
)
from .tcells import (
    MappingError,
    SFImpl,
    TCellLibrary,
    ThresholdCell,
    intervals,
    library_from_pitch_table,
    library_inventory,
    map_netlist,
    map_sf,
    scell_count,
)
from .planar import (
    PlanarSurvey,
    TemplateGrid,
    derive_pf,
    full_template,
    is_planar_function,
    links_of,
    survey_planarity,
)

__version__ = "0.1.0"
