type 'm t = {
  id : int;
  src : int;
  dst : int;
  payload : 'm;
  depth : int;
  sent_at_step : int;
  sent_in_window : int;
}
