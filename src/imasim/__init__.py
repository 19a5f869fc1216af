"""Cycle-approximate simulator, functional crossbar emulator and DSE toolkit
for an analog in-memory accelerator tightly coupled to an 8-core cluster."""

from .calibration import Calibration, default_calibration
from .mapper import (
    CrossbarAllocation,
    JobStream,
    MappingStrategy,
    depthwise_block,
    job_stream,
    map_depthwise,
    map_standard,
    network_device_count,
    utilization,
)
from .metrics import AreaModel, EnergyModel, MetricsReport, energy, report
from .timing import (
    ClusterConfig,
    ImaTiming,
    PhaseBreakdown,
    Plan,
    PortConfig,
    ScheduleResult,
    bottleneck_schedule,
    layer_cycles_ima,
    layer_cycles_sw,
)
from .verify import QuantTensor, check_equivalence, reference_conv, run_random_suite
from .workload import (
    BottleneckDescriptor,
    DepthwiseConv,
    LayerDescriptor,
    NetworkDescriptor,
    PointwiseConv,
    StandardConv,
    TensorShape,
    default_bottleneck,
    macs,
    mobilenet_v2_preset,
    output_shape,
    params,
)
from .xbar import AdcConfig, ProgrammedArray, Region

__version__ = "0.1.0"
